//! Torn/partial-I/O regression tests for the incremental frame decoder,
//! and for the two writers of one outbound queue.
//!
//! The readiness event loop reads whatever the kernel has — a frame can
//! arrive one byte at a time or glued to its neighbors in a single 64 KiB
//! chunk. [`FrameDecoder`] must reassemble the exact same frame sequence
//! regardless of how the byte stream is torn, and must reject corruption
//! exactly like the blocking [`read_frame`] path these properties'
//! siblings in `prop_frame.rs` cover.
//!
//! On the way out, a connection's frames are written by its owner's
//! `flush` or by the reactor, each stopping wherever the socket pushes
//! back. Against a slow reader, threads mixing `send` and `queue` + `flush`
//! on one connection must still see each thread's frames arrive whole and
//! in order, and a frame an owner flushed must finish without it.

mod common;

use proptest::prelude::*;

use dufs_net::frame::write_frame;
use dufs_net::{read_frame, Frame, FrameDecoder, Hello, NetStats, MAX_FRAME};

/// Serialize `n` small frames (every third one a heartbeat) into one
/// byte stream, returning the stream and the expected app payloads.
fn build_stream(n: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
    let stats = NetStats::new();
    let mut buf = Vec::new();
    let mut want = Vec::new();
    for i in 0..n {
        if i % 3 == 2 {
            write_frame(&mut buf, &[], &stats).unwrap(); // heartbeat
        } else {
            let payload = format!("torn-frame-{i}").into_bytes();
            write_frame(&mut buf, &payload, &stats).unwrap();
            want.push(payload);
        }
    }
    (buf, want)
}

/// Feed `stream` to a fresh decoder in the given chunk sizes (cycled) and
/// collect what comes out.
fn feed_in_chunks(stream: &[u8], chunks: &[usize]) -> (Vec<Vec<u8>>, u64, bool) {
    let mut dec = FrameDecoder::new(MAX_FRAME);
    let mut got = Vec::new();
    let mut heartbeats = 0u64;
    let mut pos = 0;
    let mut ci = 0;
    while pos < stream.len() {
        let take = chunks[ci % chunks.len()].min(stream.len() - pos);
        ci += 1;
        let res = dec.feed(&stream[pos..pos + take], &mut |f| match f {
            Frame::Msg(p) => got.push(p),
            Frame::Heartbeat => heartbeats += 1,
            other => panic!("decoder yielded {other:?}"),
        });
        if res.is_err() {
            return (got, heartbeats, true);
        }
        pos += take;
    }
    (got, heartbeats, false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Byte-at-a-time delivery (the worst possible tearing) reassembles
    /// the identical frame sequence.
    #[test]
    fn byte_at_a_time_reassembles_everything(n in 1u64..12) {
        let (stream, want) = build_stream(n);
        let (got, heartbeats, err) = feed_in_chunks(&stream, &[1]);
        prop_assert!(!err);
        prop_assert_eq!(got, want);
        prop_assert_eq!(heartbeats, n / 3);
    }

    /// Arbitrary random split points never change what is decoded.
    #[test]
    fn random_splits_reassemble_everything(
        n in 1u64..12,
        chunks in proptest::collection::vec(1usize..23, 1..32),
    ) {
        let (stream, want) = build_stream(n);
        let (got, heartbeats, err) = feed_in_chunks(&stream, &chunks);
        prop_assert!(!err);
        prop_assert_eq!(got, want);
        prop_assert_eq!(heartbeats, n / 3);
    }

    /// A truncated stream yields a clean prefix — nothing invented, and
    /// the decoder reports mid-frame state for EOF classification.
    #[test]
    fn truncation_yields_a_clean_prefix(
        n in 1u64..10,
        cut_ppm in 0u64..1_000_000,
        chunk in 1usize..17,
    ) {
        let (stream, want) = build_stream(n);
        let cut = (stream.len() as u64 * cut_ppm / 1_000_000) as usize;
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut got: Vec<Vec<u8>> = Vec::new();
        for piece in stream[..cut].chunks(chunk) {
            dec.feed(piece, &mut |f| {
                if let Frame::Msg(p) = f {
                    got.push(p);
                }
            }).unwrap();
        }
        prop_assert!(got.len() <= want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(&g[..], &w[..]);
        }
        // Cut on a stream boundary ⇔ decoder ends idle.
        if cut == stream.len() || cut == 0 {
            prop_assert!(!dec.mid_frame());
        }
    }

    /// Bit flips are rejected under tearing exactly as when read whole:
    /// no wrong payload is ever delivered.
    #[test]
    fn bit_flips_never_deliver_wrong_bytes_under_tearing(
        n in 1u64..8,
        at_ppm in 0u64..1_000_000,
        flip in 1u64..256,
        chunk in 1usize..17,
    ) {
        let (stream, want) = build_stream(n);
        let at = ((stream.len() as u64 - 1) * at_ppm / 1_000_000) as usize;
        let mut bad = stream.clone();
        bad[at] ^= flip as u8;
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut failed = false;
        for piece in bad.chunks(chunk) {
            if dec.feed(piece, &mut |f| {
                if let Frame::Msg(p) = f {
                    got.push(p);
                }
            }).is_err() {
                failed = true;
                break;
            }
        }
        let _ = failed; // header flips may or may not error; delivery is what matters
        prop_assert!(got.len() <= want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(&g[..], &w[..], "damaged stream delivered wrong bytes");
        }
    }

    /// The incremental decoder and the blocking reader agree frame-for-
    /// frame on arbitrary garbage (neither panics, both deliver the same
    /// prefix).
    #[test]
    fn decoder_matches_blocking_reader_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        chunk in 1usize..17,
    ) {
        // Blocking path.
        let stats = NetStats::new();
        let mut cursor = &data[..];
        let mut blocking: Vec<Vec<u8>> = Vec::new();
        loop {
            match read_frame(&mut cursor, MAX_FRAME, 3, &stats) {
                Ok(Frame::Msg(p)) => blocking.push(p),
                Ok(Frame::Heartbeat) => {}
                _ => break,
            }
        }
        // Incremental path, torn.
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut streamed: Vec<Vec<u8>> = Vec::new();
        for piece in data.chunks(chunk) {
            if dec.feed(piece, &mut |f| {
                if let Frame::Msg(p) = f {
                    streamed.push(p);
                }
            }).is_err() {
                break;
            }
        }
        prop_assert_eq!(blocking, streamed);
    }
}

/// End-to-end tearing over a real socket: a handshake and an application
/// frame dribbled at the reactor one byte at a time must still open the
/// connection and deliver the payload intact.
#[test]
fn torn_writes_over_a_live_socket_still_deliver() {
    use dufs_net::{EndpointKind, Listener, NetConfig};
    use std::io::Write;

    let cfg = NetConfig::default();
    let stats = NetStats::new();
    let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = listener.local_addr();
    let kill = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let accept = common::spawn_echo(listener, cfg, stats.clone(), kill.clone());

    // Raw client: hand-rolled handshake + frame, written one byte at a
    // time so the server's reads are maximally torn.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &Hello { kind: EndpointKind::Client, id: 42 }.encode(), &stats)
        .unwrap();
    let payload = b"dribbled one byte at a time".to_vec();
    write_frame(&mut bytes, &payload, &stats).unwrap();
    for b in &bytes {
        stream.write_all(std::slice::from_ref(b)).unwrap();
        stream.flush().unwrap();
    }
    // Read the server hello, then the echo (skipping heartbeats).
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let hello = match read_frame(&mut stream, MAX_FRAME, 0, &stats).unwrap() {
        Frame::Msg(p) => Hello::decode(&p).unwrap(),
        other => panic!("expected server hello, got {other:?}"),
    };
    assert_eq!(hello.kind, EndpointKind::Server);
    loop {
        match read_frame(&mut stream, MAX_FRAME, 0, &stats).unwrap() {
            Frame::Msg(p) => {
                assert_eq!(p, payload, "echo corrupted by tearing");
                break;
            }
            Frame::Heartbeat => {}
            other => panic!("connection died before the echo: {other:?}"),
        }
    }
    accept.stop();
    kill.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// A frame payload that says who wrote it: writer, sequence number, then a
/// body whose every byte depends on both and on its position.
fn tagged(writer: u8, seq: u32, body: usize) -> Vec<u8> {
    let mut p = vec![writer];
    p.extend_from_slice(&seq.to_le_bytes());
    p.extend((0..body).map(|i| (i as u32 ^ seq.wrapping_mul(131) ^ u32::from(writer) << 8) as u8));
    p
}

/// Accept one dial on a plain listener and answer its hello by hand, so
/// the far end of the connection under test reads at whatever pace the
/// test likes.
fn accept_raw(listener: &std::net::TcpListener) -> std::net::TcpStream {
    let stats = NetStats::new();
    let (mut stream, _) = listener.accept().unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    match read_frame(&mut stream, MAX_FRAME, 0, &stats).unwrap() {
        Frame::Msg(p) => {
            Hello::decode(&p).unwrap();
        }
        other => panic!("expected a hello, got {other:?}"),
    }
    let hello = Hello { kind: dufs_net::EndpointKind::Server, id: 0 };
    write_frame(&mut stream, &hello.encode(), &stats).unwrap();
    stream
}

/// A reader that takes at most 4 KiB per call and naps every 64 KiB.
struct Slow {
    inner: std::net::TcpStream,
    reads: u64,
}

impl std::io::Read for Slow {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        if self.reads.is_multiple_of(16) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let n = buf.len().min(4096);
        self.inner.read(&mut buf[..n])
    }
}

/// The next application frame from a slow reader, skipping heartbeats.
fn next_msg(slow: &mut Slow) -> Vec<u8> {
    let stats = NetStats::new();
    loop {
        match read_frame(slow, MAX_FRAME, 0, &stats).unwrap() {
            Frame::Msg(p) => return p,
            Frame::Heartbeat => {}
            other => panic!("connection ended early: {other:?}"),
        }
    }
}

/// A connection dialed at a listener that [`accept_raw`] serves.
fn dial(addr: std::net::SocketAddr, cfg: &dufs_net::NetConfig) -> dufs_net::Conn {
    let hello = Hello { kind: dufs_net::EndpointKind::Client, id: 1 };
    let (conn, _rx) = dufs_net::connect(addr, hello, cfg, &NetStats::new()).unwrap();
    conn
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Writers on several threads share one connection, each frame going
    /// out either through `send` (the reactor writes it) or `queue` +
    /// `flush` (the writer's own thread does). Whoever writes, and wherever
    /// a slow reader makes the socket push back, each writer's frames
    /// arrive in its order, none torn or interleaved with another's.
    #[test]
    fn mixed_writers_keep_each_writers_frames_whole_and_in_order(
        plans in proptest::collection::vec(
            proptest::collection::vec(
                (
                    any::<bool>(),
                    prop_oneof![0usize..64, 0usize..4096, 0usize..(1 << 20) + 1, Just(1 << 20)],
                ),
                2..9,
            ),
            2..5,
        ),
    ) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let total: usize = plans.iter().map(Vec::len).sum();
        // Built up front, so the writers outpace the reader from the start.
        let frames: Vec<Vec<(bool, Vec<u8>)>> = plans
            .iter()
            .enumerate()
            .map(|(w, plan)| {
                let tag = |(seq, &(owner, body)): (usize, &(bool, usize))| {
                    (owner, tagged(w as u8, seq as u32, body))
                };
                plan.iter().enumerate().map(tag).collect()
            })
            .collect();
        let reader = std::thread::spawn(move || {
            let mut slow = Slow { inner: accept_raw(&listener), reads: 0 };
            // Let the writers fill the socket before anything drains.
            std::thread::sleep(std::time::Duration::from_millis(20));
            (0..total).map(|_| next_msg(&mut slow)).collect::<Vec<_>>()
        });
        let conn = dial(addr, &dufs_net::NetConfig::default());
        std::thread::scope(|s| {
            for frames in frames {
                let conn = &conn;
                s.spawn(move || {
                    for (owner, frame) in frames {
                        if owner {
                            conn.queue(frame).unwrap();
                            conn.flush().unwrap();
                        } else {
                            conn.send(frame).unwrap();
                        }
                        // Spread the writes out, so owner flushes and reactor
                        // flushes take turns on the socket.
                        std::thread::sleep(std::time::Duration::from_micros(300));
                    }
                });
            }
        });
        let got = reader.join().unwrap();
        let mut next_seq = vec![0u32; plans.len()];
        for frame in &got {
            prop_assert!(frame.len() >= 5, "frame shorter than its tag");
            let w = frame[0] as usize;
            let seq = u32::from_le_bytes(frame[1..5].try_into().unwrap());
            prop_assert!(w < plans.len(), "frame from no writer");
            prop_assert_eq!(seq, next_seq[w], "writer {}'s frames out of order", w);
            let body = plans[w][seq as usize].1;
            prop_assert!(frame == &tagged(w as u8, seq, body), "writer {} frame {} damaged", w, seq);
            next_seq[w] += 1;
        }
        let sent: Vec<u32> = plans.iter().map(|p| p.len() as u32).collect();
        prop_assert_eq!(next_seq, sent);
        drop(conn);
    }
}

/// An 8 MiB frame is far more than the socket takes at once. The owner's
/// one `flush` returns with the rest still queued — before the reader has
/// read a byte — and the reactor finishes it on the socket's writable
/// edges with no further call on the connection. (Heartbeats are a minute
/// apart, so no heartbeat's flush can carry the rest instead.)
#[test]
fn an_owner_flushed_8_mib_frame_finishes_without_another_call() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (go, flushed) = crossbeam::channel::bounded::<()>(1);
    let reader = std::thread::spawn(move || {
        let mut slow = Slow { inner: accept_raw(&listener), reads: 0 };
        flushed
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("flush blocked until the reader drained the socket");
        next_msg(&mut slow)
    });
    let conn = dial(addr, &dufs_net::NetConfig { heartbeat_ms: 60_000, ..Default::default() });
    let big = tagged(0, 0, 8 << 20);
    conn.queue(big.clone()).unwrap();
    conn.flush().unwrap();
    go.send(()).unwrap();
    let got = reader.join().unwrap();
    assert!(got == big, "the 8 MiB frame arrived damaged ({} bytes)", got.len());
    // Only now may the connection go: dropping it would flush on close.
    drop(conn);
}
