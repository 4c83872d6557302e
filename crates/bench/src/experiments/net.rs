//! dufs-net loopback microbenchmark: framed-transport round-trip throughput
//! swept over message size × pipeline depth, plus a connection-count axis
//! exercising the readiness event loop at scale.
//!
//! An echo server reflects every frame back on the same connection; the
//! client keeps a window of `depth` frames in flight (send one for every
//! receive): transport pipelining, the shape of a server's reply stream to
//! many synchronous sessions multiplexed on its loop, and of a raw window
//! of requests down one connection (`dufs-bench reads`' churn writers). The
//! sweep shows the levers the transport design banks on:
//!
//! * **depth** amortises per-round-trip latency — the depth-32 cell must
//!   beat depth-1 on small frames by a comfortable factor, or the
//!   pipelining plumbing is broken;
//! * **size** amortises per-frame overhead (8-byte header + CRC32) —
//!   bytes/sec keeps climbing with frame size;
//! * **sessions** proves the reactor scales by *registration*, not by
//!   thread: 1 → 10 000 concurrent echo sessions must not grow the thread
//!   count of this process (read from `/proc/self/status`);
//! * **who writes**: the sweep's cells hand every frame to a reactor
//!   (`Conn::send`) at both ends; in the `owner_flush` rows (64-byte frames
//!   at depths 1 and 32, run right after the 64-byte cells) the client and
//!   the echo forwarder queue frames and write them on their own thread
//!   just before they wait (`Conn::queue` + `Conn::flush`), the way the
//!   coordination and store clients and servers do.
//!
//! The 10 000-session cell runs its echo server in a child process
//! (`dufs-bench echo-server`) so each side stays under the file-descriptor
//! limit; `--smoke` runs only the 1 000-session in-process cell as a fast
//! CI gate. `FULL=1` runs 10x the per-cell message count.

use std::collections::HashMap;
use std::io::{BufRead, Write as _};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use dufs_net::{
    connect, connect_demux, AcceptHandle, Conn, ConnEvent, EndpointKind, Hello, Listener,
    NetConfig, NetStats,
};

use crate::{Report, Scale, Value};

/// Live thread count of this process, from `/proc/self/status`.
fn thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// How an end of a cell gets its frames onto the socket.
#[derive(Clone, Copy, PartialEq)]
enum Writer {
    /// `Conn::send`: queue and wake the reactor, which writes.
    Reactor,
    /// `Conn::queue`, then `Conn::flush` on this thread when it is about
    /// to wait.
    Owner,
}

/// Echo server on the demux API: one forwarder thread serves *every*
/// connection, so a socket costs a registration, never a thread.
fn spawn_demux_echo(writer: Writer) -> (AcceptHandle, SocketAddr) {
    let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).expect("bind echo server");
    let addr = listener.local_addr();
    let (accept, events) = listener.spawn_accept_demux(
        Hello { kind: EndpointKind::Server, id: 0 },
        NetConfig::default(),
        NetStats::default(),
    );
    std::thread::Builder::new()
        .name("bench-echo".into())
        .spawn(move || {
            let mut conns: HashMap<u64, Conn> = HashMap::new();
            // Connections with echoes queued since the last wait.
            let mut written: Vec<u64> = Vec::new();
            loop {
                let next = match writer {
                    Writer::Reactor => events.recv(),
                    Writer::Owner => events.try_recv().or_else(|_| {
                        for id in written.drain(..) {
                            if let Some(c) = conns.get(&id) {
                                let _ = c.flush();
                            }
                        }
                        events.recv()
                    }),
                };
                let Ok(ev) = next else { return };
                match ev {
                    ConnEvent::Opened { id, conn } => {
                        conns.insert(id, conn);
                    }
                    ConnEvent::Frame { id, payload } => {
                        if let Some(c) = conns.get(&id) {
                            if writer == Writer::Reactor {
                                let _ = c.send(payload);
                            } else if c.queue(payload).is_ok() && !written.contains(&id) {
                                written.push(id);
                            }
                        }
                    }
                    ConnEvent::Closed { id } => {
                        conns.remove(&id);
                    }
                }
            }
        })
        .expect("spawn echo forwarder");
    (accept, addr)
}

/// `dufs-bench echo-server`, the hidden child mode: serve echoes until
/// the parent closes our stdin (or kills us). The bound address is
/// announced on stdout.
pub fn echo_server_child() {
    let (accept, addr) = spawn_demux_echo(Writer::Reactor);
    let mut out = std::io::stdout();
    writeln!(out, "ECHO_ADDR {addr}").expect("announce address");
    out.flush().expect("flush address");
    let mut parked = String::new();
    let _ = std::io::stdin().read_line(&mut parked);
    accept.stop();
}

/// An `echo-server` child, killed on drop.
struct ChildEcho(std::process::Child);

impl Drop for ChildEcho {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn the echo server as a separate process so the 10k-session cell
/// splits its sockets across two fd tables.
fn spawn_child_echo() -> (ChildEcho, SocketAddr) {
    let exe = std::env::current_exe().expect("current exe");
    let mut child = std::process::Command::new(exe)
        .arg("echo-server")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn echo-server child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout).read_line(&mut line).expect("read ECHO_ADDR");
    let addr = line
        .trim()
        .strip_prefix("ECHO_ADDR ")
        .unwrap_or_else(|| panic!("bad child banner: {line:?}"))
        .parse()
        .expect("parse child address");
    (ChildEcho(child), addr)
}

/// Ping-pong `msgs` frames of `msg_bytes` keeping `depth` in flight;
/// returns the cell's row and its msgs/sec.
fn run_cell(
    addr: SocketAddr,
    writer: Writer,
    msg_bytes: usize,
    depth: usize,
    msgs: usize,
) -> (Vec<Value>, f64) {
    let stats = NetStats::default();
    let (conn, inbound) =
        connect(addr, Hello { kind: EndpointKind::Client, id: 1 }, &NetConfig::default(), &stats)
            .expect("connect to echo server");

    let payload = vec![0x5au8; msg_bytes];
    let put = |p: Vec<u8>| match writer {
        Writer::Reactor => conn.send(p),
        Writer::Owner => conn.queue(p),
    };
    let start = Instant::now();
    let mut sent = 0usize;
    let mut recvd = 0usize;
    while sent < depth.min(msgs) {
        put(payload.clone()).expect("prime window");
        sent += 1;
    }
    while recvd < msgs {
        let echo = match writer {
            Writer::Reactor => inbound.recv(),
            Writer::Owner => inbound.try_recv().or_else(|_| {
                conn.flush().expect("flush before waiting");
                inbound.recv()
            }),
        }
        .expect("echo frame");
        assert_eq!(echo.len(), msg_bytes, "echo changed the frame length");
        recvd += 1;
        if sent < msgs {
            put(payload.clone()).expect("refill window");
            sent += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

    let msgs_per_sec = msgs as f64 / elapsed;
    let row = vec![
        msg_bytes.into(),
        depth.into(),
        msgs.into(),
        Value::ops(msgs_per_sec),
        Value::float((msgs * msg_bytes) as f64 / elapsed / (1 << 20) as f64, 2),
        Value::float(elapsed / msgs as f64 * 1e6 * depth as f64, 2),
    ];
    (row, msgs_per_sec)
}

/// Open `sessions` concurrent connections to `addr`, then drive `per`
/// 64-byte echoes through every one of them (window ≤ 4 per session), all
/// demultiplexed over a single event stream. Appends the cell's row and
/// returns this process's thread count while every session was live.
fn run_session_cell(report: &mut Report, addr: SocketAddr, sessions: usize, per: usize) -> u64 {
    let stats = NetStats::default();
    let cfg = NetConfig::default();
    let (tx, rx) = unbounded::<ConnEvent>();

    let dial_start = Instant::now();
    let mut conns: Vec<Conn> = Vec::with_capacity(sessions);
    for s in 0..sessions {
        let conn = connect_demux(
            addr,
            Hello { kind: EndpointKind::Client, id: s as u64 + 1 },
            &cfg,
            &stats,
            s as u64,
            tx.clone(),
        )
        .unwrap_or_else(|e| panic!("dial session {s}: {e}"));
        conns.push(conn);
    }
    let dial_ms = dial_start.elapsed().as_secs_f64() * 1e3;
    let threads = thread_count();

    // Registration is asynchronous (a command to the reactor thread), so
    // give the gauge a moment to catch up with the last dials.
    let deadline = Instant::now() + Duration::from_secs(10);
    while (stats.snapshot().conns_registered as usize) < sessions {
        assert!(
            Instant::now() < deadline,
            "sessions never registered with the reactor pool: {:?}",
            stats.snapshot()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let payload = vec![0x5au8; 64];
    let window = per.min(4);
    let total = sessions * per;
    let mut left: Vec<usize> = vec![per - window; sessions];
    let start = Instant::now();
    for c in &conns {
        for _ in 0..window {
            c.send(payload.clone()).expect("prime session window");
        }
    }
    let mut recvd = 0usize;
    while recvd < total {
        match rx.recv().expect("session event stream") {
            ConnEvent::Frame { id, payload: echo } => {
                assert_eq!(echo.len(), 64, "echo changed the frame length");
                recvd += 1;
                let s = id as usize;
                if left[s] > 0 {
                    left[s] -= 1;
                    conns[s].send(payload.clone()).expect("refill session window");
                }
            }
            ConnEvent::Opened { .. } => {}
            ConnEvent::Closed { id } => panic!("session {id} died mid-benchmark"),
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

    report.row(vec![
        sessions.into(),
        total.into(),
        Value::ops(total as f64 / elapsed),
        Value::float(dial_ms, 1),
        threads.into(),
    ]);
    threads
}

/// The connection-count axis: the same 64-byte echo spread across ever
/// more concurrent sessions, all carried by the fixed reactor pool, with
/// the gate that sockets are registrations, not threads.
fn session_sweep(report: &mut Report, session_counts: &[usize], per_cell: usize) {
    report.table("sessions", vec!["sessions", "msgs", "msgs_per_sec", "dial_ms", "threads"]);
    let mut threads_at = Vec::new();
    for &n in session_counts {
        let per = (per_cell / n).max(4);
        // Both sides in one process cost 2 fds per session; stay well clear
        // of the soft fd limit before splitting into a child process.
        let threads = if n * 2 + 64 > 15_000 {
            let (_child, addr) = spawn_child_echo();
            run_session_cell(report, addr, n, per)
        } else {
            let (accept, addr) = spawn_demux_echo(Writer::Reactor);
            let threads = run_session_cell(report, addr, n, per);
            accept.stop();
            threads
        };
        threads_at.push(threads);
    }
    report.gate(
        "thread count stays flat while sessions are live (no thread per connection)",
        threads_at.iter().all(|t| (1..64).contains(t)),
        format!("{threads_at:?} threads with {session_counts:?} concurrent sessions"),
    );
}

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new("dufs-net loopback sweep: CRC32-framed echo", scale);
    report.field("transport", "dufs-net loopback echo, CRC32-framed");
    report.field("event_loop", "epoll edge-triggered reactor pool, writev flushes");
    if scale == Scale::Smoke {
        session_sweep(&mut report, &[1_000], 4_000);
        return report;
    }

    let per_cell = scale.pick(5_000, 50_000);
    let headers = vec!["msg_bytes", "depth", "msgs", "msgs_per_sec", "mib_per_sec", "rtt_us"];
    report.table("cells", headers.clone());
    let (accept, addr) = spawn_demux_echo(Writer::Reactor);
    let (mut d1, mut d32) = (0.0, 0.0);
    let mut owner_rows = Vec::new();
    for size in [64usize, 1024, 16 << 10, 64 << 10] {
        // Cap the biggest frames so a cell stays well under a second.
        let msgs = if size >= 16 << 10 { per_cell / 5 } else { per_cell };
        for depth in [1usize, 8, 32] {
            let (row, rate) = run_cell(addr, Writer::Reactor, size, depth, msgs);
            report.row(row);
            match (size, depth) {
                (64, 1) => d1 = rate,
                (64, 32) => d32 = rate,
                _ => {}
            }
        }
        if size == 64 {
            // Right after the `send` cells they are compared with: the
            // host's speed drifts over a run by more than the difference.
            let (owner_accept, owner_addr) = spawn_demux_echo(Writer::Owner);
            for depth in [1usize, 32] {
                owner_rows.push(run_cell(owner_addr, Writer::Owner, 64, depth, per_cell).0);
            }
            owner_accept.stop();
        }
    }
    accept.stop();
    report.table("owner_flush", headers);
    owner_rows.into_iter().for_each(|row| report.row(row));

    // Headline: depth-32 pipelining must clearly beat stop-and-wait on small
    // frames — that amortisation is why the transport queues frames and
    // flushes at the wait point instead of writing each one through.
    let gain = d32 / f64::max(d1, f64::MIN_POSITIVE);
    report.field("pipelining_gain_64b", Value::unit(gain, 2, "x"));
    report.gate(
        "pipelining amortises round trips (64-byte frames, depth 32 vs depth 1)",
        gain >= 1.5,
        format!("{gain:.2}x"),
    );

    session_sweep(&mut report, &[1, 100, 1_000, 10_000], per_cell);
    report
}
