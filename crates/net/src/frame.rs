//! On-the-wire framing and the connection handshake.
//!
//! Every frame is one [`record`] — `len: u32 | crc32: u32 |
//! payload[len]`, little-endian, with the CRC computed over the payload —
//! the frame the write-ahead log and the extent log store. A zero-length
//! payload is a transport heartbeat (its CRC must be the CRC of the empty
//! string, i.e. 0) and is consumed by the transport, never delivered to the
//! application.
//!
//! The first frame in each direction is a [`Hello`]: magic, protocol
//! version, endpoint kind, endpoint id. A version or magic mismatch aborts
//! the connection before any application traffic flows.

use std::io::{ErrorKind, Read, Write};

use crate::record::{self, HEAD};
use crate::stats::NetStats;
use crate::wire::{Codec, WireCursor, WireError};
use crate::{crc32, NetError};

/// Handshake magic.
pub const MAGIC: &[u8; 8] = b"DUFSNET1";

/// Protocol version this build speaks.
pub const PROTO_VERSION: u16 = 1;

/// What kind of endpoint a connection's initiator (or responder) is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// A coordination server's peer link (id = peer id).
    Peer,
    /// A client session connection (id = client-chosen connection id).
    Client,
    /// A diagnostics connection (status probes; id unused).
    Admin,
    /// A server answering any of the above (id = the server's peer id).
    Server,
}

crate::wire! {
    EndpointKind { 0 => Peer, 1 => Client, 2 => Admin, 3 => Server }
}

/// The handshake message: who is speaking, and in which protocol version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The sender's role on this connection.
    pub kind: EndpointKind,
    /// Role-specific identity (peer id for peers/servers, connection id
    /// for clients).
    pub id: u64,
}

/// A [`Hello`]'s fields, which follow the magic and version.
struct HelloFields;

crate::wire! {
    Hello as HelloFields { kind: EndpointKind, id: u64 }
}

impl Hello {
    /// Encode to a frame payload: magic, version, then the fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(19);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        HelloFields::put(self, &mut buf);
        buf
    }

    /// Decode a frame payload, verifying magic and version before the
    /// fields are read.
    pub fn decode(raw: &[u8]) -> Result<Hello, WireError> {
        let mut c = WireCursor::new(raw);
        if c.take(8)? != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = c.u16()?;
        if version != PROTO_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let hello = HelloFields::get(&mut c)?;
        c.expect_end()?;
        Ok(hello)
    }
}

/// Write one frame (header + payload) and flush it.
pub fn write_frame(w: &mut impl Write, payload: &[u8], stats: &NetStats) -> std::io::Result<()> {
    w.write_all(&record::head(&[payload]))?;
    w.write_all(payload)?;
    w.flush()?;
    if payload.is_empty() {
        stats.on_heartbeat_sent();
    } else {
        stats.on_frame_sent((HEAD + payload.len()) as u64);
    }
    Ok(())
}

/// Outcome of one [`read_frame`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete, CRC-verified application payload.
    Msg(Vec<u8>),
    /// A transport heartbeat (consumed here; resets liveness).
    Heartbeat,
    /// The stream's read timeout elapsed between frames (no bytes read):
    /// the caller counts this against its heartbeat-miss budget.
    Idle,
    /// Clean end of stream on a frame boundary.
    Eof,
}

enum Fill {
    Full,
    Idle,
    Eof,
}

/// Read exactly `buf.len()` bytes, tolerating up to `stall_tries` read
/// timeouts *while mid-value* (a slow peer), but reporting a timeout with
/// nothing read as `Idle` when `idle_ok` (a quiet peer — the caller's
/// heartbeat accounting takes over). EOF mid-value is an error: the peer
/// died inside a frame.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    idle_ok: bool,
    stall_tries: u32,
) -> Result<Fill, NetError> {
    let mut got = 0;
    let mut stalls = 0u32;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && idle_ok { Ok(Fill::Eof) } else { Err(NetError::Closed) }
            }
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if got == 0 && idle_ok {
                    return Ok(Fill::Idle);
                }
                stalls += 1;
                if stalls > stall_tries {
                    return Err(NetError::Io(e));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(Fill::Full)
}

/// Read one frame. The stream's read timeout (if any) bounds each wait;
/// `stall_tries` bounds how many consecutive timeouts are tolerated while
/// a frame is partially read.
pub fn read_frame(
    r: &mut impl Read,
    max_frame: usize,
    stall_tries: u32,
    stats: &NetStats,
) -> Result<Frame, NetError> {
    let mut head = [0u8; HEAD];
    match fill(r, &mut head, true, stall_tries)? {
        Fill::Idle => return Ok(Frame::Idle),
        Fill::Eof => return Ok(Frame::Eof),
        Fill::Full => {}
    }
    let Some((len, crc)) = check_head(&head, max_frame)? else {
        stats.on_heartbeat_recv();
        return Ok(Frame::Heartbeat);
    };
    let mut payload = vec![0u8; len];
    match fill(r, &mut payload, false, stall_tries)? {
        Fill::Full => {}
        _ => return Err(NetError::Closed),
    }
    check_payload(crc, &payload)?;
    stats.on_frame_recv((HEAD + len) as u64);
    Ok(Frame::Msg(payload))
}

/// What both readers check of a frame's head before its payload: a length
/// within `max_frame`, and a heartbeat's CRC (that of the empty string).
/// `None` is a heartbeat; otherwise the payload's length and CRC.
fn check_head(head: &[u8; HEAD], max_frame: usize) -> Result<Option<(usize, u32)>, NetError> {
    match record::split(head) {
        (len, _) if len > max_frame => Err(NetError::Corrupt("frame length exceeds cap")),
        (0, 0) => Ok(None),
        (0, _) => Err(NetError::Corrupt("heartbeat with nonzero CRC")),
        body => Ok(Some(body)),
    }
}

fn check_payload(crc: u32, payload: &[u8]) -> Result<(), NetError> {
    if crc32(payload) != crc {
        return Err(NetError::Corrupt("frame CRC mismatch"));
    }
    Ok(())
}

/// Incremental frame decoder for nonblocking sockets.
///
/// The blocking [`read_frame`] owns its stream and can simply block until a
/// frame completes; a readiness loop instead receives arbitrary byte chunks
/// — a frame may arrive one byte at a time, or several frames plus a
/// partial one may land in a single read. `FrameDecoder` is the
/// chunk-boundary-tolerant state machine: [`FrameDecoder::feed`] consumes a
/// chunk, invokes the sink once per *completed* frame, and carries partial
/// header/payload state across calls.
///
/// Validation is identical to [`read_frame`]: oversized lengths, CRC
/// mismatches, and nonzero heartbeat CRCs are [`NetError::Corrupt`], and a
/// corrupt stream cannot be resynchronized — the caller must drop the
/// connection.
#[derive(Debug)]
pub struct FrameDecoder {
    max_frame: usize,
    head: [u8; HEAD],
    head_got: usize,
    /// `Some` while mid-payload: expected CRC and the accumulating bytes
    /// (capacity = the full expected length).
    body: Option<(u32, Vec<u8>)>,
}

impl FrameDecoder {
    /// A decoder enforcing `max_frame` as its payload cap.
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder { max_frame, head: [0u8; HEAD], head_got: 0, body: None }
    }

    /// Whether the decoder is mid-frame (a partial header or payload is
    /// buffered). EOF in this state means the peer died inside a frame.
    pub fn mid_frame(&self) -> bool {
        self.head_got > 0 || self.body.is_some()
    }

    /// Consume `chunk`, calling `sink` for each frame completed by it
    /// ([`Frame::Msg`] or [`Frame::Heartbeat`]; never `Idle`/`Eof`).
    pub fn feed<F>(&mut self, mut chunk: &[u8], sink: &mut F) -> Result<(), NetError>
    where
        F: FnMut(Frame),
    {
        while !chunk.is_empty() {
            match &mut self.body {
                None => {
                    // Assemble the 8-byte header.
                    let take = (HEAD - self.head_got).min(chunk.len());
                    self.head[self.head_got..self.head_got + take].copy_from_slice(&chunk[..take]);
                    self.head_got += take;
                    chunk = &chunk[take..];
                    if self.head_got < HEAD {
                        return Ok(());
                    }
                    self.head_got = 0;
                    match check_head(&self.head, self.max_frame)? {
                        None => sink(Frame::Heartbeat),
                        Some((len, crc)) => self.body = Some((crc, Vec::with_capacity(len))),
                    }
                }
                Some((crc, payload)) => {
                    let want = payload.capacity() - payload.len();
                    let take = want.min(chunk.len());
                    payload.extend_from_slice(&chunk[..take]);
                    chunk = &chunk[take..];
                    if payload.len() < payload.capacity() {
                        return Ok(());
                    }
                    let (crc, payload) = (*crc, std::mem::take(payload));
                    self.body = None;
                    check_payload(crc, &payload)?;
                    sink(Frame::Msg(payload));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_FRAME;

    fn round_trip(payload: &[u8]) -> Frame {
        let stats = NetStats::default();
        let mut buf = Vec::new();
        write_frame(&mut buf, payload, &stats).unwrap();
        read_frame(&mut buf.as_slice(), MAX_FRAME, 3, &stats).unwrap()
    }

    #[test]
    fn frame_round_trips() {
        assert_eq!(round_trip(b"hello"), Frame::Msg(b"hello".to_vec()));
        assert_eq!(round_trip(b""), Frame::Heartbeat);
    }

    #[test]
    fn empty_stream_is_eof() {
        let stats = NetStats::default();
        assert_eq!(read_frame(&mut [].as_slice(), MAX_FRAME, 3, &stats).unwrap(), Frame::Eof);
    }

    #[test]
    fn corrupt_payload_is_detected() {
        let stats = NetStats::default();
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload", &stats).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        match read_frame(&mut buf.as_slice(), MAX_FRAME, 3, &stats) {
            Err(NetError::Corrupt(_)) => {}
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let stats = NetStats::default();
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        match read_frame(&mut buf.as_slice(), MAX_FRAME, 3, &stats) {
            Err(NetError::Corrupt(_)) => {}
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let stats = NetStats::default();
        let mut buf = Vec::new();
        write_frame(&mut buf, b"partial", &stats).unwrap();
        buf.truncate(buf.len() - 3);
        match read_frame(&mut buf.as_slice(), MAX_FRAME, 3, &stats) {
            Err(NetError::Closed) => {}
            other => panic!("expected closed, got {other:?}"),
        }
    }

    #[test]
    fn decoder_reassembles_byte_at_a_time() {
        let stats = NetStats::default();
        let mut stream = Vec::new();
        write_frame(&mut stream, b"alpha", &stats).unwrap();
        write_frame(&mut stream, b"", &stats).unwrap();
        write_frame(&mut stream, b"beta", &stats).unwrap();
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut got = Vec::new();
        for b in &stream {
            dec.feed(std::slice::from_ref(b), &mut |f| got.push(f)).unwrap();
        }
        assert_eq!(
            got,
            vec![Frame::Msg(b"alpha".to_vec()), Frame::Heartbeat, Frame::Msg(b"beta".to_vec())]
        );
        assert!(!dec.mid_frame());
    }

    #[test]
    fn decoder_rejects_corruption_like_the_blocking_reader() {
        let stats = NetStats::default();
        let mut stream = Vec::new();
        write_frame(&mut stream, b"payload", &stats).unwrap();
        let last = stream.len() - 1;
        stream[last] ^= 0x40;
        let mut dec = FrameDecoder::new(MAX_FRAME);
        match dec.feed(&stream, &mut |_| panic!("no frame should complete")) {
            Err(NetError::Corrupt(_)) => {}
            other => panic!("expected corrupt, got {other:?}"),
        }
        // Oversized length dies on the header alone.
        let mut head = Vec::new();
        head.extend_from_slice(&u32::MAX.to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        let mut dec = FrameDecoder::new(MAX_FRAME);
        assert!(matches!(dec.feed(&head, &mut |_| unreachable!()), Err(NetError::Corrupt(_))));
    }

    #[test]
    fn decoder_tracks_mid_frame_state_for_eof_classification() {
        let stats = NetStats::default();
        let mut stream = Vec::new();
        write_frame(&mut stream, b"partial", &stats).unwrap();
        let mut dec = FrameDecoder::new(MAX_FRAME);
        dec.feed(&stream[..stream.len() - 3], &mut |_| panic!("incomplete")).unwrap();
        assert!(dec.mid_frame(), "a truncated frame leaves the decoder mid-frame");
    }

    #[test]
    fn hello_round_trips_and_rejects_mismatches() {
        let h = Hello { kind: EndpointKind::Peer, id: 42 };
        let enc = h.encode();
        assert_eq!(Hello::decode(&enc), Ok(h));
        let mut bad_magic = enc.clone();
        bad_magic[0] ^= 1;
        assert_eq!(Hello::decode(&bad_magic), Err(WireError::BadMagic));
        let mut bad_ver = enc.clone();
        bad_ver[8] = 0xFF;
        assert!(matches!(Hello::decode(&bad_ver), Err(WireError::BadVersion(_))));
        for cut in 0..enc.len() {
            assert!(Hello::decode(&enc[..cut]).is_err(), "cut={cut}");
        }
    }

    /// Every endpoint kind keeps its tag byte (from 0), pinned with the
    /// whole handshake.
    #[test]
    fn hello_bytes_are_pinned_for_every_kind() {
        use EndpointKind::*;
        for (kind, tag) in [(Peer, 0), (Client, 1), (Admin, 2), (Server, 3)] {
            let enc = Hello { kind, id: 0x0102_0304_0506_0708 }.encode();
            let mut want = b"DUFSNET1\x01\x00".to_vec();
            want.push(tag);
            want.extend_from_slice(&[8, 7, 6, 5, 4, 3, 2, 1]);
            assert_eq!(enc, want, "{kind:?}");
            assert_eq!(Hello::decode(&enc).map(|h| h.kind), Ok(kind));
        }
        assert_eq!(<EndpointKind as Codec<'_>>::TAGS, [0, 1, 2, 3]);
        assert_eq!(
            Hello::decode(b"DUFSNET1\x01\x00\x04\0\0\0\0\0\0\0\0"),
            Err(WireError::BadTag(4))
        );
    }
}
