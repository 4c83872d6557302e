//! `dufs-net` — the framed TCP transport under the coordination service.
//!
//! Everything above this crate (ZAB, the coord server, clients) exchanges
//! *opaque byte payloads*; this crate moves them over blocking sockets:
//!
//! - [`wire`]: a bounds-checked binary codec ([`Wire`], [`WireCursor`]) the
//!   upper layers implement for their message types. Decoding malformed
//!   bytes returns [`WireError`], never panics.
//! - [`frame`]: the on-the-wire framing — `len u32 | crc32 u32 | payload`,
//!   little-endian, the same CRC discipline as the write-ahead log — plus
//!   the versioned connection handshake ([`Hello`]).
//! - [`conn`]: connection management over a nonblocking readiness event
//!   loop: a small fixed pool of epoll reactor threads multiplexes every
//!   connection's reads, vectored (`writev`) write flushes, idle-time
//!   heartbeats, and liveness, with per-connection channels or a
//!   demultiplexed [`ConnEvent`] stream toward the owner, an accept loop,
//!   and exponential-backoff reconnect ([`Backoff`]).
//! - [`pool`]: the reactors' reusable read-buffer pool ([`pool::BufferPool`]).
//! - [`stats`]: per-endpoint transport counters ([`NetStats`]), including
//!   event-loop mechanics (wakeups, writev batching, pool hits).
//!
//! The crate knows nothing about ZAB or ZooKeeper semantics; it never
//! inspects payloads beyond the heartbeat/app distinction (an empty payload
//! is a transport heartbeat and is consumed here).

#![warn(missing_docs)]

pub mod conn;
mod crc;
pub mod frame;
pub mod pool;
mod reactor;
pub mod stats;
mod sys;
pub mod wire;

pub use conn::{
    connect, connect_demux, AcceptHandle, Backoff, Conn, ConnEvent, Listener, NetConfig,
};
pub use crc::{crc32, crc32_parts};
pub use frame::{
    frame_head, read_frame, write_frame, EndpointKind, Frame, FrameDecoder, Hello, MAX_FRAME,
    PROTO_VERSION,
};
pub use stats::{NetStats, NetStatsSnapshot};
pub use wire::{put_blob, put_str, Wire, WireCursor, WireError};

/// Transport-level failure.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// A frame or handshake failed structural validation (bad CRC,
    /// oversized length, bad magic/version). The connection is unusable —
    /// stream sync cannot be re-established after a damaged frame.
    Corrupt(&'static str),
    /// The peer spoke a different protocol or closed during the handshake.
    Handshake(&'static str),
    /// The connection is closed (peer gone or locally shut down).
    Closed,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
            NetError::Handshake(m) => write!(f, "handshake failed: {m}"),
            NetError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}
