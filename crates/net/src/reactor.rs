//! The readiness event loop at the heart of the transport.
//!
//! A small fixed pool of reactor threads (one per available core, 1–16)
//! owns every connection in the process. Each reactor runs one epoll
//! instance in edge-triggered mode plus an `eventfd` other threads use to
//! kick it, and keeps a per-connection state machine:
//!
//! * **reads** drain the socket until `EWOULDBLOCK` into the reactor's one
//!   scratch buffer (it reads one connection at a time), feeding an
//!   incremental [`FrameDecoder`] that tolerates frames split across
//!   arbitrary read boundaries;
//! * **writes** go through a per-connection outbound queue that any thread
//!   fills. Whoever flushes it — the owner on its own thread just before it
//!   waits ([`Conn::flush`]), or the reactor after a [`Conn::send`] nudge,
//!   a heartbeat or an `EPOLLOUT` edge — runs the same [`ConnShared`]
//!   routine under the queue lock: `writev` of up to [`MAX_WRITEV_FRAMES`]
//!   queued frames per syscall until the queue empties or the socket
//!   pushes back, with partial-write offsets carried to the next edge;
//! * **handshakes** for accepted sockets run inside the loop (phase
//!   `Handshake`): the peer's [`Hello`] is decoded, validated, answered,
//!   and only then is the connection announced to its owner — a stranger
//!   or version-mismatched dialer is dropped without ever surfacing;
//! * **heartbeats and liveness** ride a periodic tick: a connection with
//!   no outbound bytes for a heartbeat interval — by either writer, the
//!   clock is shared — gets a heartbeat frame queued, and every silent
//!   inbound window counts a miss until `max_misses` declares the peer
//!   dead — the same contract the blocking reader/writer threads used to
//!   enforce.
//!
//! Owners talk to the loop only through [`ConnShared`] (queue, flush,
//! close request, closed flag) and receive inbound traffic either on a
//! per-connection channel or on a shared demultiplexed [`ConnEvent`]
//! stream, which is what lets a server host tens of thousands of sessions
//! without a thread per connection. A connection's descriptor is the
//! reactor's: it marks the connection closed under the queue lock before
//! it drops the socket, so an owner's flush never writes to a descriptor
//! number the kernel has handed to someone else.

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::conn::{Conn, ConnEvent};
use crate::frame::{Frame, FrameDecoder, Hello};
use crate::record::{self, MAX_FRAME};
use crate::stats::NetStats;
use crate::sys::{
    writev_fd, Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT,
    EPOLLRDHUP,
};
use crate::NetError;

/// Most frames one `writev` call will coalesce (two iovecs per frame:
/// header + payload, comfortably under `IOV_MAX`).
pub const MAX_WRITEV_FRAMES: usize = 32;

/// Epoll token reserved for the reactor's wake eventfd.
const WAKE_TOKEN: u64 = 0;

/// How often an idle reactor re-checks timers when nothing forces a
/// tighter schedule.
const DEFAULT_TICK: Duration = Duration::from_millis(250);

/// Bytes of a reactor's read scratch buffer: enough to drain a socket's
/// receive buffer in one `read`.
const READ_BUF_BYTES: usize = 64 << 10;

/// Per-connection transport tuning, frozen at registration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tuning {
    pub heartbeat: Duration,
    pub max_misses: u32,
}

/// Where a connection's decoded inbound frames go.
pub(crate) enum Delivery {
    /// One dedicated channel per connection; dropping the sender signals
    /// death to the owner.
    Channel(Sender<Vec<u8>>),
    /// All frames funnel into one shared event stream, tagged by `id`.
    Demux { id: u64, tx: Sender<ConnEvent> },
}

/// Connection lifecycle phase.
pub(crate) enum Phase {
    /// Accepted socket, peer speaks first: decode its hello, answer, then
    /// open. Dropped without announcement if `deadline` passes first.
    Handshake { my_hello: Hello, deadline: Instant },
    /// Fully handshaken (dialed sockets register directly here).
    Open,
}

/// One queued outbound frame (header + payload), with a write offset that
/// spans both (0..8 covers the header).
struct OutFrame {
    head: [u8; 8],
    payload: Vec<u8>,
    off: usize,
}

impl OutFrame {
    fn remaining(&self) -> usize {
        8 + self.payload.len() - self.off
    }
}

/// Everything a writer needs, under one lock: the queued frames, when a
/// byte last left, and whether the descriptor is still this connection's.
struct Outbound {
    frames: VecDeque<OutFrame>,
    /// Last instant any outbound byte left, by either writer (heartbeat
    /// scheduling).
    last_tx: Instant,
    /// Set by the reactor before it drops the socket. A writer holding the
    /// lock and seeing `false` writes to this connection and no other.
    closed: bool,
}

/// The owner-facing half of a registered connection: queue and flush
/// frames, ask for closure, observe death. Shared between [`Conn`] handles
/// and the reactor's connection state.
pub(crate) struct ConnShared {
    token: u64,
    /// The socket's descriptor; valid while `out.closed` is false.
    fd: RawFd,
    stats: NetStats,
    flush_queued: AtomicBool,
    out: Mutex<Outbound>,
    reactor: ReactorRef,
}

impl ConnShared {
    /// The outbound half, locked. A writer that panicked while holding it
    /// may have left a frame half-written: the stream cannot be trusted.
    fn out(&self) -> MutexGuard<'_, Outbound> {
        self.out.lock().expect("a writer panicked mid-frame")
    }

    /// Whether the reactor has torn this connection down.
    pub(crate) fn is_closed(&self) -> bool {
        self.out().closed
    }

    /// Queue one application frame without waking anyone. Fails once the
    /// connection has died, and for a payload over [`MAX_FRAME`], which
    /// the peer would have to reject as corrupt; the connection stays
    /// usable after that refusal.
    pub(crate) fn queue(&self, payload: Vec<u8>) -> Result<(), NetError> {
        if payload.len() > MAX_FRAME {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "payload exceeds the frame cap",
            )));
        }
        let head = record::head(&[&payload]);
        let mut out = self.out();
        if out.closed {
            return Err(NetError::Closed);
        }
        out.frames.push_back(OutFrame { head, payload, off: 0 });
        Ok(())
    }

    /// Queue one application frame and nudge the reactor to write it.
    pub(crate) fn send(&self, payload: Vec<u8>) -> Result<(), NetError> {
        self.queue(payload)?;
        if !self.flush_queued.swap(true, Ordering::AcqRel) {
            self.reactor.send(Cmd::Flush(self.token));
        }
        Ok(())
    }

    /// Write what is queued on the calling thread, up to what the socket
    /// takes now; the rest leaves on the reactor's next `EPOLLOUT` edge. A
    /// socket error is the reactor's to act on: it is nudged to find it and
    /// tear the connection down.
    pub(crate) fn flush(&self) -> Result<(), NetError> {
        let mut out = self.out();
        if out.closed {
            return Err(NetError::Closed);
        }
        if self.write_queued(&mut out).is_ok() {
            return Ok(());
        }
        drop(out);
        self.reactor.send(Cmd::Flush(self.token));
        Err(NetError::Closed)
    }

    /// Write queued frames with vectored writes until the queue empties or
    /// the socket pushes back. Partial writes leave an offset for the next
    /// edge. The one write routine: the reactor's flushes and the owner's
    /// [`ConnShared::flush`] both run it under the queue lock, so frames
    /// leave whole and in queue order whoever writes them.
    fn write_queued(&self, out: &mut Outbound) -> std::io::Result<()> {
        while !out.frames.is_empty() {
            let mut iov: Vec<&[u8]> =
                Vec::with_capacity(2 * MAX_WRITEV_FRAMES.min(out.frames.len()));
            for f in out.frames.iter().take(MAX_WRITEV_FRAMES) {
                if f.off < 8 {
                    iov.push(&f.head[f.off..]);
                    if !f.payload.is_empty() {
                        iov.push(&f.payload);
                    }
                } else {
                    iov.push(&f.payload[f.off - 8..]);
                }
            }
            match writev_fd(self.fd, &iov) {
                Ok(mut n) => {
                    out.last_tx = Instant::now();
                    let mut completed = 0u64;
                    while n > 0 {
                        let f = out.frames.front_mut().expect("bytes written imply a queued frame");
                        let rem = f.remaining();
                        if n >= rem {
                            n -= rem;
                            if f.payload.is_empty() {
                                self.stats.on_heartbeat_sent();
                            } else {
                                self.stats.on_frame_sent(8 + f.payload.len() as u64);
                            }
                            completed += 1;
                            out.frames.pop_front();
                        } else {
                            f.off += n;
                            n = 0;
                        }
                    }
                    self.stats.on_writev(completed);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Ask the reactor to flush whatever is queued and close. Idempotent.
    pub(crate) fn request_close(&self) {
        if !self.is_closed() {
            self.reactor.send(Cmd::Close(self.token));
        }
    }
}

/// Commands other threads push into a reactor.
enum Cmd {
    Register(Box<Registration>),
    Flush(u64),
    Close(u64),
}

/// Everything the reactor needs to adopt one socket.
pub(crate) struct Registration {
    pub stream: TcpStream,
    pub shared: Arc<ConnShared>,
    pub delivery: Delivery,
    pub tuning: Tuning,
    pub phase: Phase,
}

/// Cross-thread wake plumbing: the eventfd plus an "already armed" latch
/// so a burst of senders costs one syscall.
struct WakeShared {
    fd: WakeFd,
    armed: AtomicBool,
}

/// A cheap handle onto one reactor thread.
#[derive(Clone)]
pub(crate) struct ReactorRef {
    cmd_tx: Sender<Cmd>,
    wake: Arc<WakeShared>,
}

impl ReactorRef {
    fn send(&self, cmd: Cmd) {
        if self.cmd_tx.send(cmd).is_ok() && !self.wake.armed.swap(true, Ordering::SeqCst) {
            self.wake.fd.wake();
        }
    }
}

/// The process-wide reactor pool, spawned on first use.
fn reactors() -> &'static Vec<ReactorRef> {
    static POOL: OnceLock<Vec<ReactorRef>> = OnceLock::new();
    POOL.get_or_init(|| {
        let n = std::thread::available_parallelism().map_or(1, |p| p.get()).clamp(1, 16);
        (0..n)
            .map(|i| {
                let (cmd_tx, cmd_rx) = unbounded::<Cmd>();
                let wake = Arc::new(WakeShared {
                    fd: WakeFd::new().expect("eventfd"),
                    armed: AtomicBool::new(false),
                });
                let r = Reactor::new(cmd_rx, wake.clone());
                std::thread::Builder::new()
                    .name(format!("net-reactor-{i}"))
                    .spawn(move || r.run())
                    .expect("spawn reactor thread");
                ReactorRef { cmd_tx, wake }
            })
            .collect()
    })
}

/// Process-unique connection tokens (0 is the wake token).
fn next_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Hand `stream` to a reactor (round-robin across the pool). The stream is
/// switched to nonblocking mode here; the returned [`ConnShared`] is the
/// owner's handle for sends and closure.
pub(crate) fn register(
    stream: TcpStream,
    delivery: Delivery,
    tuning: Tuning,
    stats: NetStats,
    phase: Phase,
) -> std::io::Result<Arc<ConnShared>> {
    static NEXT_REACTOR: AtomicUsize = AtomicUsize::new(0);
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true).ok();
    let pool = reactors();
    let reactor = pool[NEXT_REACTOR.fetch_add(1, Ordering::Relaxed) % pool.len()].clone();
    let shared = Arc::new(ConnShared {
        token: next_token(),
        fd: stream.as_raw_fd(),
        stats,
        flush_queued: AtomicBool::new(false),
        out: Mutex::new(Outbound {
            frames: VecDeque::new(),
            last_tx: Instant::now(),
            closed: false,
        }),
        reactor: reactor.clone(),
    });
    reactor.send(Cmd::Register(Box::new(Registration {
        stream,
        shared: shared.clone(),
        delivery,
        tuning,
        phase,
    })));
    Ok(shared)
}

/// Why a connection is being torn down (drives stats + announcements).
enum Close {
    /// Normal death after the connection was announced to its owner.
    Dead,
    /// The handshake never completed: count a failed connection and never
    /// surface the connection at all.
    HandshakeFailed,
}

/// One connection's reactor-side state.
struct ConnState {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    delivery: Delivery,
    tuning: Tuning,
    decoder: FrameDecoder,
    phase: Phase,
    peer_addr: Option<SocketAddr>,
    /// Start of the current silent-inbound window (liveness misses).
    rx_window: Instant,
    misses: u32,
    /// Owner asked to close: flush the queue, then drop.
    closing: bool,
    /// Whether the owner has been told this connection exists (a `Demux`
    /// `Closed` event is only sent after an `Opened`, and dialed
    /// connections are born announced).
    announced: bool,
}

impl ConnState {
    /// How a socket failure ends this connection.
    fn death(&self) -> Close {
        if self.announced {
            Close::Dead
        } else {
            Close::HandshakeFailed
        }
    }
}

struct Reactor {
    epoll: Epoll,
    wake: Arc<WakeShared>,
    cmd_rx: Receiver<Cmd>,
    conns: HashMap<u64, ConnState>,
    /// What `read_drain` reads into, one connection at a time.
    scratch: Vec<u8>,
    decoded: Vec<Frame>,
    next_tick: Instant,
    tick_every: Duration,
}

impl Reactor {
    fn new(cmd_rx: Receiver<Cmd>, wake: Arc<WakeShared>) -> Reactor {
        let epoll = Epoll::new().expect("epoll_create1");
        epoll.add(wake.fd.fd(), WAKE_TOKEN, EPOLLIN).expect("register wake fd");
        Reactor {
            epoll,
            wake,
            cmd_rx,
            conns: HashMap::new(),
            scratch: vec![0; READ_BUF_BYTES],
            decoded: Vec::new(),
            next_tick: Instant::now() + DEFAULT_TICK,
            tick_every: DEFAULT_TICK,
        }
    }

    fn run(mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; 256];
        loop {
            let timeout_ms =
                self.next_tick.saturating_duration_since(Instant::now()).as_millis().clamp(0, 500)
                    as i32;
            let n = self.epoll.wait(&mut events, timeout_ms).unwrap_or_default();
            for ev in &events[..n] {
                let (flags, token) = (ev.events, ev.data);
                if token == WAKE_TOKEN {
                    self.wake.fd.drain();
                } else {
                    self.on_io(token, flags);
                }
            }
            // Drain commands, THEN open the wake latch, then re-check: a
            // sender that enqueued while the latch was armed skips the
            // eventfd write, so clearing the latch before the final poll is
            // what keeps that command from being stranded until the next
            // tick. (Clearing before the drain instead would let a wake
            // land between clear and drain and be swallowed with the latch
            // left armed — permanently downgrading every future send to
            // tick latency.)
            loop {
                while let Ok(cmd) = self.cmd_rx.try_recv() {
                    self.on_cmd(cmd);
                }
                self.wake.armed.store(false, Ordering::SeqCst);
                match self.cmd_rx.try_recv() {
                    Ok(cmd) => self.on_cmd(cmd),
                    Err(_) => break,
                }
            }
            if Instant::now() >= self.next_tick {
                self.tick();
            }
        }
    }

    fn on_cmd(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::Register(reg) => self.on_register(*reg),
            Cmd::Flush(token) => {
                if let Some(st) = self.conns.get_mut(&token) {
                    st.shared.flush_queued.store(false, Ordering::Release);
                    st.shared.stats.on_wakeup();
                    if let Err(close) = flush_conn(st) {
                        self.close_conn(token, close);
                    }
                }
            }
            Cmd::Close(token) => {
                let Some(st) = self.conns.get_mut(&token) else { return };
                st.closing = true;
                match flush_conn(st) {
                    Err(close) => self.close_conn(token, close),
                    Ok(()) if st_queue_empty(&self.conns, token) => {
                        self.close_conn(token, Close::Dead)
                    }
                    Ok(()) => {}
                }
            }
        }
    }

    fn on_register(&mut self, reg: Registration) {
        let now = Instant::now();
        let token = reg.shared.token;
        let fd = reg.stream.as_raw_fd();
        let peer_addr = reg.stream.peer_addr().ok();
        if self.epoll.add(fd, token, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET).is_err() {
            // Marked before `reg` (and with it the socket) is dropped.
            reg.shared.out().closed = true;
            reg.shared.stats.on_conn_failed();
            return;
        }
        reg.shared.stats.on_conn_registered();
        let announced = matches!(reg.phase, Phase::Open);
        let half_hb = (reg.tuning.heartbeat / 2).max(Duration::from_millis(1));
        if half_hb < self.tick_every {
            self.tick_every = half_hb;
            self.next_tick = self.next_tick.min(now + self.tick_every);
        }
        self.conns.insert(
            token,
            ConnState {
                stream: reg.stream,
                shared: reg.shared,
                delivery: reg.delivery,
                tuning: reg.tuning,
                decoder: FrameDecoder::new(MAX_FRAME),
                phase: reg.phase,
                peer_addr,
                rx_window: now,
                misses: 0,
                closing: false,
                announced,
            },
        );
    }

    fn on_io(&mut self, token: u64, flags: u32) {
        let Some(st) = self.conns.get_mut(&token) else { return };
        st.shared.stats.on_wakeup();
        if flags & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
            match read_drain(st, &mut self.scratch, &mut self.decoded) {
                Ok(()) => {}
                Err(close) => {
                    self.close_conn(token, close);
                    return;
                }
            }
        }
        // Flush on an explicit write edge, and opportunistically after a
        // read that queued something (e.g. the handshake reply).
        let st = self.conns.get_mut(&token).expect("conn still present");
        let has_out = !st.shared.out().frames.is_empty();
        if flags & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0 || has_out {
            if let Err(close) = flush_conn(st) {
                self.close_conn(token, close);
                return;
            }
            if st_queue_empty(&self.conns, token)
                && self.conns.get(&token).is_some_and(|s| s.closing)
            {
                self.close_conn(token, Close::Dead);
            }
        }
    }

    /// Heartbeat injection, liveness windows, handshake deadlines.
    fn tick(&mut self) {
        let now = Instant::now();
        let mut dead: Vec<(u64, Close)> = Vec::new();
        let mut flush: Vec<u64> = Vec::new();
        for (&token, st) in self.conns.iter_mut() {
            if let Phase::Handshake { deadline, .. } = st.phase {
                if now >= deadline {
                    dead.push((token, Close::HandshakeFailed));
                }
                continue;
            }
            // Checked and queued under one lock: a flush by the owner in
            // between would make this heartbeat redundant.
            let mut out = st.shared.out();
            if !st.closing && now.duration_since(out.last_tx) >= st.tuning.heartbeat {
                out.frames.push_back(OutFrame {
                    head: record::head(&[]),
                    payload: Vec::new(),
                    off: 0,
                });
                flush.push(token);
            }
            drop(out);
            // At most ONE miss per tick pass, anchored to now: a miss means
            // a full heartbeat window of *reactor-observed* silence. Walking
            // the elapsed wall-clock windows instead would let a scheduler
            // stall (which also froze the peer's heartbeats on this very
            // loop) retroactively count a whole death budget in one tick.
            if now.duration_since(st.rx_window) >= st.tuning.heartbeat {
                st.rx_window = now;
                st.misses += 1;
                st.shared.stats.on_heartbeat_miss();
                if st.misses >= st.tuning.max_misses {
                    dead.push((token, Close::Dead));
                }
            }
        }
        for token in flush {
            if let Some(st) = self.conns.get_mut(&token) {
                if let Err(close) = flush_conn(st) {
                    dead.push((token, close));
                }
            }
        }
        for (token, close) in dead {
            self.close_conn(token, close);
        }
        if self.conns.is_empty() {
            self.tick_every = DEFAULT_TICK;
        }
        self.next_tick = now + self.tick_every;
    }

    /// Tear a connection down: mark it closed, deregister, tell the owner.
    fn close_conn(&mut self, token: u64, close: Close) {
        let Some(st) = self.conns.remove(&token) else { return };
        // Under the queue lock and before the socket is dropped: once the
        // descriptor number is free, no owner's flush may reach it.
        st.shared.out().closed = true;
        self.epoll.del(st.stream.as_raw_fd()).ok();
        st.shared.stats.on_conn_unregistered();
        if matches!(close, Close::HandshakeFailed) {
            st.shared.stats.on_conn_failed();
        }
        if let Delivery::Demux { id, tx } = &st.delivery {
            if st.announced {
                let _ = tx.send(ConnEvent::Closed { id: *id });
            }
        }
        // Dropping the state drops the stream (closing the fd) and any
        // `Delivery::Channel` sender (disconnecting the owner's receiver).
    }
}

/// Is `token`'s outbound queue empty right now?
fn st_queue_empty(conns: &HashMap<u64, ConnState>, token: u64) -> bool {
    conns.get(&token).is_some_and(|st| st.shared.out().frames.is_empty())
}

/// Drain the socket until `EWOULDBLOCK`, decoding and dispatching frames.
fn read_drain(st: &mut ConnState, buf: &mut [u8], decoded: &mut Vec<Frame>) -> Result<(), Close> {
    loop {
        match st.stream.read(buf) {
            // EOF. Mid-frame it is an abrupt death; either way the
            // connection is over (matching the blocking reader).
            Ok(0) => return Err(st.death()),
            Ok(n) => {
                let now = Instant::now();
                st.rx_window = now;
                st.misses = 0;
                decoded.clear();
                if st.decoder.feed(&buf[..n], &mut |f| decoded.push(f)).is_err() {
                    // Framing corruption: the stream cannot be resynced.
                    return Err(st.death());
                }
                for frame in decoded.drain(..) {
                    match frame {
                        Frame::Heartbeat => st.shared.stats.on_heartbeat_recv(),
                        Frame::Msg(payload) => dispatch_msg(st, payload)?,
                        Frame::Idle | Frame::Eof => unreachable!("decoder never yields these"),
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(st.death()),
        }
    }
}

/// Route one complete application frame: handshake processing while in
/// `Phase::Handshake`, normal delivery once `Open`.
fn dispatch_msg(st: &mut ConnState, payload: Vec<u8>) -> Result<(), Close> {
    match &st.phase {
        Phase::Handshake { my_hello, .. } => {
            let Ok(remote) = Hello::decode(&payload) else {
                return Err(Close::HandshakeFailed);
            };
            // Answer with our own hello, then open.
            let reply = my_hello.encode();
            let head = record::head(&[&reply]);
            st.shared.out().frames.push_back(OutFrame { head, payload: reply, off: 0 });
            st.phase = Phase::Open;
            st.shared.stats.on_conn_opened();
            let conn = Conn::from_parts(st.shared.clone(), remote, st.peer_addr);
            match &st.delivery {
                Delivery::Demux { id, tx } => {
                    if tx.send(ConnEvent::Opened { id: *id, conn }).is_err() {
                        return Err(Close::HandshakeFailed);
                    }
                }
                Delivery::Channel(_) => {
                    unreachable!("pre-handshaken conns never register in Handshake phase")
                }
            }
            st.announced = true;
            Ok(())
        }
        Phase::Open => {
            st.shared.stats.on_frame_recv(8 + payload.len() as u64);
            let delivered = match &st.delivery {
                Delivery::Channel(tx) => tx.send(payload).is_ok(),
                Delivery::Demux { id, tx } => {
                    tx.send(ConnEvent::Frame { id: *id, payload }).is_ok()
                }
            };
            if delivered {
                Ok(())
            } else {
                // Owner gone: nobody is listening, tear down.
                Err(Close::Dead)
            }
        }
    }
}

/// The reactor's flush: [`ConnShared`]'s one write routine, with a socket
/// error ending the connection.
fn flush_conn(st: &mut ConnState) -> Result<(), Close> {
    let mut out = st.shared.out();
    st.shared.write_queued(&mut out).map_err(|_| st.death())
}
