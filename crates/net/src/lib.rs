//! `dufs-net` — the framed TCP transport under the coordination service.
//!
//! Everything above this crate (ZAB, the coord server, clients) exchanges
//! *opaque byte payloads*; this crate moves them over TCP sockets:
//!
//! - [`mod@wire`]: a bounds-checked binary codec ([`Codec`], [`Wire`],
//!   [`WireCursor`]) and the [`wire!`] declaration through which the upper
//!   layers give each message type its layout once. Decoding malformed
//!   bytes returns [`WireError`], never panics.
//! - [`record`]: the one record frame — `len u32 | crc32 u32 | payload`,
//!   little-endian — its head builder, log scanner, sealed checkpoint file
//!   and atomic replace, shared by the socket, the write-ahead log (which
//!   compiles this file) and the data servers' extent log.
//! - [`frame`]: records on the socket — blocking and incremental readers,
//!   heartbeats — plus the versioned connection handshake ([`Hello`]).
//! - [`conn`]: connection management over a nonblocking readiness event
//!   loop: a small fixed pool of epoll reactor threads multiplexes every
//!   connection's reads, vectored (`writev`) write flushes, idle-time
//!   heartbeats, and liveness, with per-connection channels or a
//!   demultiplexed [`ConnEvent`] stream toward the owner, an accept loop,
//!   and exponential-backoff reconnect ([`Backoff`]).
//! - [`stats`]: per-endpoint transport counters ([`NetStats`]), including
//!   event-loop mechanics (wakeups, writev batching).
//!
//! The crate knows nothing about ZAB or ZooKeeper semantics; it never
//! inspects payloads beyond the heartbeat/app distinction (an empty payload
//! is a transport heartbeat and is consumed here).

#![warn(missing_docs)]

pub mod conn;
mod crc;
pub mod frame;
mod reactor;
pub mod record;
pub mod stats;
mod sys;
pub mod wire;

pub use conn::{
    connect, connect_demux, AcceptHandle, Backoff, Conn, ConnEvent, Listener, NetConfig,
};
pub use crc::{crc32, crc32_parts};
pub use frame::{read_frame, write_frame, EndpointKind, Frame, FrameDecoder, Hello, PROTO_VERSION};
pub use record::MAX_FRAME;
pub use stats::{NetStats, NetStatsSnapshot};
pub use wire::{put_nested, Codec, Nested, Rest, RestStr, Wire, WireCursor, WireError};

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
