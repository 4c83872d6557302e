//! Connection management over the readiness event loop.
//!
//! Connections no longer own threads. Every established socket is
//! registered with the process-wide reactor pool (see the `reactor`
//! module docs), which multiplexes reads, vectored write flushes,
//! heartbeats, and liveness for all of them on a handful of event-loop
//! threads. Outbound frames go onto a per-connection queue, and there are
//! two ways to get them out:
//!
//! * an owner that sends and then waits for the answer [`Conn::queue`]s
//!   its frames and calls [`Conn::flush`] just before it waits: the frames
//!   leave on its own thread, coalesced into one `writev`, and only what
//!   the socket cannot take right now is left to the reactor — no thread
//!   hand-off on the request path;
//! * [`Conn::send`] queues and nudges the owning reactor, which writes the
//!   frame on its thread — for callers with no natural wait point.
//!
//! Inbound frames arrive either on a dedicated channel per connection
//! ([`connect`]) or demultiplexed onto one shared [`ConnEvent`] stream
//! ([`connect_demux`] / [`Listener::spawn_accept_demux`]) so a single owner
//! thread can service tens of thousands of sessions.
//!
//! Death is observed exactly as before: the inbound channel disconnects
//! (or a [`ConnEvent::Closed`] arrives), and [`Conn::send`],
//! [`Conn::queue`] and [`Conn::flush`] return [`NetError::Closed`].
//! Reconnecting is the owner's policy, assisted by [`Backoff`].

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::frame::{read_frame, write_frame, Frame, Hello};
use crate::reactor::{self, ConnShared, Delivery, Phase, Tuning};
use crate::record::MAX_FRAME;
use crate::stats::NetStats;
use crate::NetError;

/// Transport tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Idle interval after which a heartbeat is injected, and the width of
    /// one inbound silence window.
    pub heartbeat_ms: u64,
    /// Consecutive silent inbound windows before the peer is declared dead.
    pub max_misses: u32,
    /// First reconnect delay.
    pub reconnect_min_ms: u64,
    /// Reconnect delay ceiling (exponential backoff saturates here).
    pub reconnect_max_ms: u64,
    /// Dial + handshake timeout.
    pub connect_timeout_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            heartbeat_ms: 500,
            max_misses: 4,
            reconnect_min_ms: 10,
            reconnect_max_ms: 1_000,
            connect_timeout_ms: 2_000,
        }
    }
}

fn tuning(cfg: &NetConfig) -> Tuning {
    Tuning { heartbeat: Duration::from_millis(cfg.heartbeat_ms), max_misses: cfg.max_misses }
}

/// Exponential-backoff schedule for reconnect attempts.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    cur_ms: u64,
    min_ms: u64,
    max_ms: u64,
}

impl Backoff {
    /// A schedule starting at `reconnect_min_ms`, doubling to
    /// `reconnect_max_ms`.
    pub fn new(cfg: &NetConfig) -> Self {
        Backoff {
            cur_ms: cfg.reconnect_min_ms,
            min_ms: cfg.reconnect_min_ms,
            max_ms: cfg.reconnect_max_ms,
        }
    }

    /// The delay to wait before the next attempt, advancing the schedule.
    pub fn next_delay(&mut self) -> Duration {
        let d = Duration::from_millis(self.cur_ms);
        self.cur_ms = (self.cur_ms * 2).min(self.max_ms);
        d
    }

    /// Back to the initial delay (after a successful connect).
    pub fn reset(&mut self) {
        self.cur_ms = self.min_ms;
    }
}

/// One event on a demultiplexed connection stream
/// ([`Listener::spawn_accept_demux`] / [`connect_demux`]).
pub enum ConnEvent {
    /// A new connection finished its handshake. The [`Conn`] is the
    /// owner's to keep: dropping it closes the connection.
    Opened {
        /// The stream-local connection id tagging all later events.
        id: u64,
        /// The send handle for the new connection.
        conn: Conn,
    },
    /// One inbound application frame.
    Frame {
        /// Which connection it arrived on.
        id: u64,
        /// The frame payload.
        payload: Vec<u8>,
    },
    /// The connection died (peer gone, liveness expired, or locally
    /// closed). Always follows `Opened` for accepted connections.
    Closed {
        /// Which connection died.
        id: u64,
    },
}

/// An established, handshaken connection. Dropping it flushes any queued
/// frames and closes the socket.
pub struct Conn {
    shared: Arc<ConnShared>,
    remote: Hello,
    peer_addr: Option<SocketAddr>,
}

impl Conn {
    /// Queue one application frame and wake the reactor to write it. Fails
    /// only when the connection has died.
    pub fn send(&self, payload: Vec<u8>) -> Result<(), NetError> {
        self.shared.send(payload)
    }

    /// Queue one application frame without waking anyone. It leaves at the
    /// next [`Conn::flush`], or with whatever the reactor writes next on
    /// this connection, in queue order either way. Fails only when the
    /// connection has died.
    pub fn queue(&self, payload: Vec<u8>) -> Result<(), NetError> {
        self.shared.queue(payload)
    }

    /// Write everything queued, on the calling thread, up to what the
    /// socket takes right now; the rest leaves on the reactor's next
    /// writable edge, so this never blocks. Call it before waiting for the
    /// answer to what was queued. Fails with [`NetError::Closed`] once the
    /// connection has died.
    pub fn flush(&self) -> Result<(), NetError> {
        self.shared.flush()
    }

    /// The peer's handshake.
    pub fn remote(&self) -> Hello {
        self.remote
    }

    /// The peer's socket address, if still known.
    pub fn peer_addr(&self) -> Option<SocketAddr> {
        self.peer_addr
    }

    /// Register an already-handshaken stream with the reactor pool.
    /// `remote` is the peer's [`Hello`]. Returns the connection handle and
    /// the inbound application-frame channel; the channel disconnects when
    /// the connection dies.
    pub fn spawn(
        stream: TcpStream,
        remote: Hello,
        cfg: &NetConfig,
        stats: NetStats,
    ) -> std::io::Result<(Conn, Receiver<Vec<u8>>)> {
        let peer_addr = stream.peer_addr().ok();
        let (tx, rx) = unbounded::<Vec<u8>>();
        let shared =
            reactor::register(stream, Delivery::Channel(tx), tuning(cfg), stats, Phase::Open)?;
        Ok((Conn { shared, remote, peer_addr }, rx))
    }

    pub(crate) fn from_parts(
        shared: Arc<ConnShared>,
        remote: Hello,
        peer_addr: Option<SocketAddr>,
    ) -> Conn {
        Conn { shared, remote, peer_addr }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.shared.request_close();
    }
}

fn read_hello(stream: &mut TcpStream, stats: &NetStats) -> Result<Hello, NetError> {
    match read_frame(stream, MAX_FRAME, 0, stats)? {
        Frame::Msg(payload) => {
            Hello::decode(&payload).map_err(|_| NetError::Handshake("bad hello"))
        }
        Frame::Heartbeat => Err(NetError::Handshake("heartbeat before hello")),
        Frame::Idle => Err(NetError::Handshake("handshake timed out")),
        Frame::Eof => Err(NetError::Handshake("closed before hello")),
    }
}

/// Dial `addr` and run the client half of the handshake (blocking, bounded
/// by `connect_timeout_ms`), returning the handshaken stream and the
/// server's hello.
fn dial(
    addr: SocketAddr,
    hello: Hello,
    cfg: &NetConfig,
    stats: &NetStats,
) -> Result<(TcpStream, Hello), NetError> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_millis(cfg.connect_timeout_ms))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(cfg.connect_timeout_ms)))?;
    write_frame(&mut stream, &hello.encode(), stats)?;
    let remote = read_hello(&mut stream, stats)?;
    stream.set_read_timeout(None)?;
    Ok((stream, remote))
}

/// Dial `addr`, introduce ourselves as `hello`, and await the server's
/// reply hello. Returns the connection and its inbound frame channel.
pub fn connect(
    addr: SocketAddr,
    hello: Hello,
    cfg: &NetConfig,
    stats: &NetStats,
) -> Result<(Conn, Receiver<Vec<u8>>), NetError> {
    let attempt = || -> Result<(Conn, Receiver<Vec<u8>>), NetError> {
        let (stream, remote) = dial(addr, hello, cfg, stats)?;
        Ok(Conn::spawn(stream, remote, cfg, stats.clone())?)
    };
    match attempt() {
        Ok(pair) => {
            stats.on_conn_opened();
            Ok(pair)
        }
        Err(e) => {
            stats.on_conn_failed();
            Err(e)
        }
    }
}

/// Like [`connect`], but inbound traffic is demultiplexed onto `events`
/// (tagged with `id`) instead of a dedicated channel, so one owner thread
/// can drive many dialed connections. The returned [`Conn`] sends; a
/// [`ConnEvent::Closed`] with this `id` reports its death.
pub fn connect_demux(
    addr: SocketAddr,
    hello: Hello,
    cfg: &NetConfig,
    stats: &NetStats,
    id: u64,
    events: Sender<ConnEvent>,
) -> Result<Conn, NetError> {
    let attempt = || -> Result<Conn, NetError> {
        let (stream, remote) = dial(addr, hello, cfg, stats)?;
        let peer_addr = stream.peer_addr().ok();
        let shared = reactor::register(
            stream,
            Delivery::Demux { id, tx: events },
            tuning(cfg),
            stats.clone(),
            Phase::Open,
        )?;
        Ok(Conn { shared, remote, peer_addr })
    };
    match attempt() {
        Ok(conn) => {
            stats.on_conn_opened();
            Ok(conn)
        }
        Err(e) => {
            stats.on_conn_failed();
            Err(e)
        }
    }
}

/// A bound TCP listener, not yet accepting.
#[derive(Debug)]
pub struct Listener {
    inner: TcpListener,
    addr: SocketAddr,
}

impl Listener {
    /// Bind `addr` (use port 0 to let the OS pick).
    pub fn bind(addr: SocketAddr) -> std::io::Result<Listener> {
        let inner = TcpListener::bind(addr)?;
        let addr = inner.local_addr()?;
        Ok(Listener { inner, addr })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Start the accept loop on its own thread, with demultiplexed
    /// delivery: accepted streams are handed straight to the reactor, which
    /// runs the handshake (introducing ourselves as `my_hello`) inside the
    /// event loop, and every handshaken connection's lifecycle and inbound
    /// frames arrive on the returned [`ConnEvent`] receiver, tagged with a
    /// listener-local id (1, 2, …). Streams that fail or time out the
    /// handshake are dropped without ever surfacing. One owner thread can
    /// therefore service any number of sessions; no per-connection threads
    /// or channels are created. The handle stops the loop.
    pub fn spawn_accept_demux(
        self,
        my_hello: Hello,
        cfg: NetConfig,
        stats: NetStats,
    ) -> (AcceptHandle, Receiver<ConnEvent>) {
        let (tx, rx) = unbounded::<ConnEvent>();
        (self.spawn_accept_into(my_hello, cfg, stats, tx), rx)
    }

    /// [`Listener::spawn_accept_demux`] onto a stream the caller already
    /// owns, so accepted connections and dialed ones ([`connect_demux`])
    /// can share one owner thread. The caller keeps the ids it dials under
    /// clear of the listener's (1, 2, …).
    pub fn spawn_accept_into(
        self,
        my_hello: Hello,
        cfg: NetConfig,
        stats: NetStats,
        events: Sender<ConnEvent>,
    ) -> AcceptHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let addr = self.addr;
        let handle = std::thread::Builder::new()
            .name("net-accept".into())
            .spawn(move || {
                let mut next_id = 0u64;
                for stream in self.inner.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    next_id += 1;
                    let _ = reactor::register(
                        stream,
                        Delivery::Demux { id: next_id, tx: events.clone() },
                        tuning(&cfg),
                        stats.clone(),
                        Phase::Handshake {
                            my_hello,
                            deadline: Instant::now()
                                + Duration::from_millis(cfg.connect_timeout_ms),
                        },
                    );
                }
            })
            .expect("spawn accept thread");
        AcceptHandle { stop, addr, handle: Some(handle) }
    }
}

/// Stops a running accept loop when dropped or [`AcceptHandle::stop`]ped.
#[derive(Debug)]
pub struct AcceptHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl AcceptHandle {
    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join its thread.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(handle) = self.handle.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a throwaway dial; it never
        // completes a handshake and the reactor drops it.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        let _ = handle.join();
    }
}

impl Drop for AcceptHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::RecvTimeoutError;

    fn fast_cfg() -> NetConfig {
        NetConfig { heartbeat_ms: 50, ..NetConfig::default() }
    }

    /// Echo server: one thread, no per-connection state but a `Conn` map.
    /// It ends once `accept` is stopped and the last session hangs up.
    fn spawn_echo(
        listener: Listener,
        cfg: NetConfig,
        stats: NetStats,
    ) -> (AcceptHandle, JoinHandle<()>) {
        let (accept, events) = listener.spawn_accept_demux(
            Hello { kind: crate::EndpointKind::Server, id: 0 },
            cfg,
            stats,
        );
        let echo = std::thread::spawn(move || {
            let mut conns = std::collections::HashMap::new();
            while let Ok(ev) = events.recv() {
                match ev {
                    ConnEvent::Opened { id, conn } => {
                        conns.insert(id, conn);
                    }
                    ConnEvent::Frame { id, payload } => {
                        if let Some(conn) = conns.get(&id) {
                            let _ = conn.send(payload);
                        }
                    }
                    ConnEvent::Closed { id } => {
                        conns.remove(&id);
                    }
                }
            }
        });
        (accept, echo)
    }

    #[test]
    fn loopback_echo_round_trip() {
        let cfg = fast_cfg();
        let server_stats = NetStats::new();
        let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr();
        let (accept, echo) = spawn_echo(listener, cfg, server_stats.clone());

        let client_stats = NetStats::new();
        let (conn, rx) =
            connect(addr, Hello { kind: crate::EndpointKind::Client, id: 7 }, &cfg, &client_stats)
                .unwrap();
        assert_eq!(conn.remote().kind, crate::EndpointKind::Server);
        for i in 0..10u32 {
            conn.send(format!("msg-{i}").into_bytes()).unwrap();
        }
        for i in 0..10u32 {
            let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got, format!("msg-{i}").into_bytes());
        }
        let snap = client_stats.snapshot();
        assert!(snap.frames_sent >= 10 && snap.frames_recv >= 10);
        assert_eq!(snap.conns_opened, 1);
        assert!(snap.wakeups > 0, "reactor wakeups must be attributed");
        assert!(snap.writev_batches > 0, "sends must go through writev flushes");
        drop((conn, rx));
        accept.stop();
        echo.join().unwrap();
    }

    /// A payload over the cap is refused where it is queued, not sent as a
    /// frame the peer must reject as corrupt and hang up on.
    #[test]
    fn an_over_cap_payload_is_refused_and_the_connection_lives_on() {
        let cfg = fast_cfg();
        let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr();
        let (accept, echo) = spawn_echo(listener, cfg, NetStats::new());
        let (conn, rx) = connect(
            addr,
            Hello { kind: crate::EndpointKind::Client, id: 8 },
            &cfg,
            &NetStats::new(),
        )
        .unwrap();
        conn.send(b"before".to_vec()).unwrap();
        match conn.queue(vec![0; MAX_FRAME + 1]) {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
            other => panic!("an over-cap payload was queued: {other:?}"),
        }
        conn.send(b"after".to_vec()).unwrap();
        for want in [&b"before"[..], b"after"] {
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), want);
        }
        drop((conn, rx));
        accept.stop();
        echo.join().unwrap();
    }

    #[test]
    fn demux_stream_carries_many_sessions() {
        let cfg = fast_cfg();
        let server_stats = NetStats::new();
        let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr();
        let (accept, echo) = spawn_echo(listener, cfg, server_stats.clone());
        let client_stats = NetStats::new();
        let mut sessions = Vec::new();
        for i in 0..8u64 {
            let (conn, rx) = connect(
                addr,
                Hello { kind: crate::EndpointKind::Client, id: i },
                &cfg,
                &client_stats,
            )
            .unwrap();
            sessions.push((conn, rx));
        }
        for (i, (conn, _)) in sessions.iter().enumerate() {
            conn.send(format!("ping-{i}").into_bytes()).unwrap();
        }
        for (i, (_, rx)) in sessions.iter().enumerate() {
            let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got, format!("ping-{i}").into_bytes());
        }
        assert_eq!(server_stats.snapshot().conns_opened, 8);
        drop(sessions);
        accept.stop();
        echo.join().unwrap();
    }

    #[test]
    fn heartbeats_flow_on_an_idle_connection() {
        let cfg = NetConfig { heartbeat_ms: 20, ..NetConfig::default() };
        let server_stats = NetStats::new();
        let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr();
        let (accept, echo) = spawn_echo(listener, cfg, server_stats.clone());
        let client_stats = NetStats::new();
        let pair =
            connect(addr, Hello { kind: crate::EndpointKind::Client, id: 1 }, &cfg, &client_stats)
                .unwrap();
        std::thread::sleep(Duration::from_millis(200));
        assert!(client_stats.snapshot().heartbeats_sent > 0, "idle conn heartbeats");
        assert!(client_stats.snapshot().heartbeats_recv > 0, "server heartbeats received");
        drop(pair);
        accept.stop();
        echo.join().unwrap();
    }

    #[test]
    fn dead_peer_is_detected_and_channel_disconnects() {
        let cfg = NetConfig { heartbeat_ms: 20, max_misses: 3, ..NetConfig::default() };
        let stats = NetStats::new();
        let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr();
        let (accept, events) = listener.spawn_accept_demux(
            Hello { kind: crate::EndpointKind::Server, id: 0 },
            cfg,
            stats.clone(),
        );
        let (conn, rx) =
            connect(addr, Hello { kind: crate::EndpointKind::Client, id: 1 }, &cfg, &stats)
                .unwrap();
        // The server hangs up immediately: dropping the event drops its
        // half of the connection.
        drop(events.recv_timeout(Duration::from_secs(5)).unwrap());
        // The inbound channel must disconnect (not hang).
        match rx.recv_timeout(Duration::from_secs(5)) {
            Err(RecvTimeoutError::Disconnected) => {}
            other => panic!("expected disconnect, got {other:?}"),
        }
        // Sends eventually fail once the reactor notices.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if conn.send(b"x".to_vec()).is_err() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "send never failed");
            std::thread::sleep(Duration::from_millis(10));
        }
        accept.stop();
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let cfg = NetConfig { reconnect_min_ms: 10, reconnect_max_ms: 50, ..NetConfig::default() };
        let mut b = Backoff::new(&cfg);
        assert_eq!(b.next_delay(), Duration::from_millis(10));
        assert_eq!(b.next_delay(), Duration::from_millis(20));
        assert_eq!(b.next_delay(), Duration::from_millis(40));
        assert_eq!(b.next_delay(), Duration::from_millis(50));
        assert_eq!(b.next_delay(), Duration::from_millis(50));
        b.reset();
        assert_eq!(b.next_delay(), Duration::from_millis(10));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let cfg = fast_cfg();
        let stats = NetStats::new();
        let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr();
        let (accept, events) = listener.spawn_accept_demux(
            Hello { kind: crate::EndpointKind::Server, id: 0 },
            cfg,
            stats.clone(),
        );
        // Speak a bogus version by hand.
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut bad = Hello { kind: crate::EndpointKind::Client, id: 9 }.encode();
        bad[8] = 0xEE; // version low byte
        write_frame(&mut stream, &bad, &stats).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert!(events.try_recv().is_err(), "bad version must not be accepted");
        accept.stop();
    }
}
