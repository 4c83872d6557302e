//! Torn/partial-I/O regression tests for the incremental frame decoder.
//!
//! The readiness event loop reads whatever the kernel has — a frame can
//! arrive one byte at a time or glued to its neighbors in a single 64 KiB
//! chunk. [`FrameDecoder`] must reassemble the exact same frame sequence
//! regardless of how the byte stream is torn, and must reject corruption
//! exactly like the blocking [`read_frame`] path these properties'
//! siblings in `prop_frame.rs` cover.

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
