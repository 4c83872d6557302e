//! The readiness event loop at the heart of the transport.
//!
//! A small fixed pool of reactor threads (sized from the host's
//! parallelism, overridable via `DUFS_NET_REACTORS`) owns every connection
//! in the process. Each reactor runs one epoll instance in edge-triggered
//! mode plus an `eventfd` other threads use to kick it, and keeps a
//! per-connection state machine:
//!
//! * **reads** drain the socket until `EWOULDBLOCK` into a pooled scratch
//!   buffer ([`BufferPool`]), feeding an incremental [`FrameDecoder`] that
//!   tolerates frames split across arbitrary read boundaries;
//! * **writes** go through a per-connection outbound queue that callers
//!   ([`Conn::send`]) fill from any thread; the reactor flushes it with
//!   `writev`, coalescing up to [`MAX_WRITEV_FRAMES`] queued frames into
//!   one syscall and carrying partial-write offsets across readiness
//!   edges;
//! * **handshakes** for accepted sockets run inside the loop (phase
//!   `Handshake`): the peer's [`Hello`] is decoded, validated, answered,
//!   and only then is the connection announced to its owner — a stranger
//!   or version-mismatched dialer is dropped without ever surfacing;
//! * **heartbeats and liveness** ride a periodic tick: a connection with
//!   no outbound bytes for a heartbeat interval gets a heartbeat frame
//!   queued, and every silent inbound window counts a miss until
//!   `max_misses` declares the peer dead — the same contract the blocking
//!   reader/writer threads used to enforce.
//!
//! Owners talk to the loop only through [`ConnShared`] (enqueue + close
//! request + closed flag) and receive inbound traffic either on a
//! per-connection channel or on a shared demultiplexed [`ConnEvent`]
//! stream, which is what lets a server host tens of thousands of sessions
//! without a thread per connection.

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::conn::{Conn, ConnEvent};
use crate::frame::{frame_head, Frame, FrameDecoder, Hello};
use crate::pool::{BufferPool, READ_BUF_BYTES};
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

/// Read-scratch buffers parked per reactor.
const POOLED_BUFS: usize = 64;

/// Per-connection transport tuning, frozen at registration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tuning {
    pub heartbeat: Duration,
    pub max_misses: u32,
    pub max_frame: usize,
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

/// A caller-installed source of piggyback payloads for otherwise-empty
/// heartbeat slots (see [`ConnShared::set_idle_source`]).
pub(crate) type IdleSource = Box<dyn Fn() -> Option<Vec<u8>> + Send>;

/// The owner-facing half of a registered connection: enqueue frames, ask
/// for closure, observe death. Shared between [`Conn`] handles and the
/// reactor's connection state.
pub(crate) struct ConnShared {
    token: u64,
    closed: AtomicBool,
    flush_queued: AtomicBool,
    out: Mutex<VecDeque<OutFrame>>,
    idle_source: Mutex<Option<IdleSource>>,
    reactor: ReactorRef,
}

impl ConnShared {
    /// Whether the reactor has torn this connection down.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Install (or clear) the idle-payload source. When this connection's
    /// heartbeat interval elapses with nothing sent, the reactor asks the
    /// source for a payload and sends it as a *real* frame in the empty
    /// heartbeat's place — free piggyback bandwidth for small periodic
    /// state (a coordination server rides its lease grants here). `None`
    /// from the source falls back to the plain empty heartbeat. The source
    /// runs on the reactor thread and must not block.
    pub(crate) fn set_idle_source(&self, source: Option<IdleSource>) {
        *self.idle_source.lock().unwrap() = source;
    }

    /// Queue one application frame and nudge the reactor. Fails once the
    /// connection has died.
    pub(crate) fn send(&self, payload: Vec<u8>) -> Result<(), NetError> {
        if self.is_closed() {
            return Err(NetError::Closed);
        }
        let head = frame_head(&payload);
        self.out.lock().unwrap().push_back(OutFrame { head, payload, off: 0 });
        if !self.flush_queued.swap(true, Ordering::AcqRel) {
            self.reactor.send(Cmd::Flush(self.token));
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
    pub stats: NetStats,
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
        let n = std::env::var("DUFS_NET_REACTORS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
            .clamp(1, 16);
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
        closed: AtomicBool::new(false),
        flush_queued: AtomicBool::new(false),
        out: Mutex::new(VecDeque::new()),
        idle_source: Mutex::new(None),
        reactor: reactor.clone(),
    });
    reactor.send(Cmd::Register(Box::new(Registration {
        stream,
        shared: shared.clone(),
        delivery,
        tuning,
        stats,
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
    stats: NetStats,
    decoder: FrameDecoder,
    phase: Phase,
    peer_addr: Option<SocketAddr>,
    /// Last instant any outbound byte left (heartbeat scheduling).
    last_tx: Instant,
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

struct Reactor {
    epoll: Epoll,
    wake: Arc<WakeShared>,
    cmd_rx: Receiver<Cmd>,
    conns: HashMap<u64, ConnState>,
    pool: BufferPool,
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
            pool: BufferPool::new(POOLED_BUFS, READ_BUF_BYTES),
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
                    st.stats.on_wakeup();
                    if let Err(close) = flush_conn(st) {
                        self.close_conn(token, close);
                    }
                }
            }
            Cmd::Close(token) => {
                let Some(st) = self.conns.get_mut(&token) else { return };
                st.closing = true;
                let empty = {
                    let q = st.shared.out.lock().unwrap();
                    q.is_empty()
                };
                if empty {
                    self.close_conn(token, Close::Dead);
                } else if let Err(close) = flush_conn(st) {
                    self.close_conn(token, close);
                } else if st_queue_empty(&self.conns, token) {
                    self.close_conn(token, Close::Dead);
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
            reg.shared.closed.store(true, Ordering::Release);
            reg.stats.on_conn_failed();
            return;
        }
        reg.stats.on_conn_registered();
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
                stats: reg.stats,
                decoder: FrameDecoder::new(reg.tuning.max_frame),
                phase: reg.phase,
                peer_addr,
                last_tx: now,
                rx_window: now,
                misses: 0,
                closing: false,
                announced,
            },
        );
    }

    fn on_io(&mut self, token: u64, flags: u32) {
        let Some(st) = self.conns.get_mut(&token) else { return };
        st.stats.on_wakeup();
        if flags & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
            match read_drain(st, &mut self.pool, &mut self.decoded) {
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
        let has_out = !st.shared.out.lock().unwrap().is_empty();
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
            if !st.closing && now.duration_since(st.last_tx) >= st.tuning.heartbeat {
                // An otherwise-empty heartbeat slot can carry a payload from
                // the owner's idle source (lease piggyback): same keepalive
                // effect on the peer's liveness window, one real frame of
                // free bandwidth. No payload (or no source) sends the
                // classic empty heartbeat.
                let payload = st
                    .shared
                    .idle_source
                    .lock()
                    .unwrap()
                    .as_ref()
                    .and_then(|src| src())
                    .filter(|p| !p.is_empty());
                let frame = match payload {
                    Some(p) => {
                        st.stats.on_idle_payload();
                        OutFrame { head: frame_head(&p), payload: p, off: 0 }
                    }
                    None => OutFrame { head: frame_head(&[]), payload: Vec::new(), off: 0 },
                };
                st.shared.out.lock().unwrap().push_back(frame);
                flush.push(token);
            }
            // At most ONE miss per tick pass, anchored to now: a miss means
            // a full heartbeat window of *reactor-observed* silence. Walking
            // the elapsed wall-clock windows instead would let a scheduler
            // stall (which also froze the peer's heartbeats on this very
            // loop) retroactively count a whole death budget in one tick.
            if now.duration_since(st.rx_window) >= st.tuning.heartbeat {
                st.rx_window = now;
                st.misses += 1;
                st.stats.on_heartbeat_miss();
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

    /// Tear a connection down: deregister, mark closed, tell the owner.
    fn close_conn(&mut self, token: u64, close: Close) {
        let Some(st) = self.conns.remove(&token) else { return };
        st.shared.closed.store(true, Ordering::Release);
        self.epoll.del(st.stream.as_raw_fd()).ok();
        st.stats.on_conn_unregistered();
        if matches!(close, Close::HandshakeFailed) {
            st.stats.on_conn_failed();
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
    conns.get(&token).is_some_and(|st| st.shared.out.lock().unwrap().is_empty())
}

/// Drain the socket until `EWOULDBLOCK`, decoding and dispatching frames.
fn read_drain(
    st: &mut ConnState,
    pool: &mut BufferPool,
    decoded: &mut Vec<Frame>,
) -> Result<(), Close> {
    let mut buf = pool.acquire(&st.stats);
    let mut outcome = Ok(());
    loop {
        match st.stream.read(&mut buf[..]) {
            Ok(0) => {
                // EOF. Mid-frame it is an abrupt death; either way the
                // connection is over (matching the blocking reader).
                outcome = Err(if st.announced { Close::Dead } else { Close::HandshakeFailed });
                break;
            }
            Ok(n) => {
                let now = Instant::now();
                st.rx_window = now;
                st.misses = 0;
                decoded.clear();
                if st.decoder.feed(&buf[..n], &mut |f| decoded.push(f)).is_err() {
                    // Framing corruption: the stream cannot be resynced.
                    outcome = Err(if st.announced { Close::Dead } else { Close::HandshakeFailed });
                    break;
                }
                let mut failed = false;
                for frame in decoded.drain(..) {
                    match frame {
                        Frame::Heartbeat => st.stats.on_heartbeat_recv(),
                        Frame::Msg(payload) => {
                            if let Err(close) = dispatch_msg(st, payload) {
                                outcome = Err(close);
                                failed = true;
                                break;
                            }
                        }
                        Frame::Idle | Frame::Eof => unreachable!("decoder never yields these"),
                    }
                }
                if failed {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                outcome = Err(if st.announced { Close::Dead } else { Close::HandshakeFailed });
                break;
            }
        }
    }
    pool.release(buf);
    outcome
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
            let head = frame_head(&reply);
            st.shared.out.lock().unwrap().push_back(OutFrame { head, payload: reply, off: 0 });
            st.phase = Phase::Open;
            st.stats.on_conn_opened();
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
            st.stats.on_frame_recv(8 + payload.len() as u64);
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

/// Flush the outbound queue with vectored writes until it empties or the
/// socket pushes back. Partial writes leave an offset for the next edge.
fn flush_conn(st: &mut ConnState) -> Result<(), Close> {
    let fd = st.stream.as_raw_fd();
    let mut q = st.shared.out.lock().unwrap();
    while !q.is_empty() {
        let mut iov: Vec<&[u8]> = Vec::with_capacity(2 * MAX_WRITEV_FRAMES.min(q.len()));
        for f in q.iter().take(MAX_WRITEV_FRAMES) {
            if f.off < 8 {
                iov.push(&f.head[f.off..]);
                if !f.payload.is_empty() {
                    iov.push(&f.payload);
                }
            } else {
                iov.push(&f.payload[f.off - 8..]);
            }
        }
        match writev_fd(fd, &iov) {
            Ok(mut n) => {
                st.last_tx = Instant::now();
                let mut completed = 0u64;
                while n > 0 {
                    let f = q.front_mut().expect("bytes written imply a queued frame");
                    let rem = f.remaining();
                    if n >= rem {
                        n -= rem;
                        if f.payload.is_empty() {
                            st.stats.on_heartbeat_sent();
                        } else {
                            st.stats.on_frame_sent(8 + f.payload.len() as u64);
                        }
                        completed += 1;
                        q.pop_front();
                    } else {
                        f.off += n;
                        n = 0;
                    }
                }
                st.stats.on_writev(completed);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(if st.announced { Close::Dead } else { Close::HandshakeFailed }),
        }
    }
    Ok(())
}
