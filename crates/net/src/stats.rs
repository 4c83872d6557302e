//! Transport counters. One [`NetStats`] handle is shared (cheaply, via
//! `Arc`) by every connection of an endpoint — a server's listeners and
//! peer links, or a client's session — and snapshotted for display or
//! assertions.
//!
//! Beyond the frame/byte/heartbeat counters the blocking transport kept,
//! the readiness event loop reports its own mechanics: reactor wakeups
//! attributable to this endpoint's connections, `writev` flush batches and
//! the frames they coalesced, and a live gauge of registered connections.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Counters {
    frames_sent: AtomicU64,
    frames_recv: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    heartbeats_sent: AtomicU64,
    heartbeats_recv: AtomicU64,
    heartbeat_misses: AtomicU64,
    reconnects: AtomicU64,
    conns_opened: AtomicU64,
    conns_failed: AtomicU64,
    wakeups: AtomicU64,
    writev_batches: AtomicU64,
    frames_flushed: AtomicU64,
    conns_registered: AtomicU64,
}

/// Shared transport counters (clone = same counters).
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    inner: Arc<Counters>,
}

impl NetStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn on_frame_sent(&self, bytes: u64) {
        self.inner.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn on_frame_recv(&self, bytes: u64) {
        self.inner.frames_recv.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_recv.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn on_heartbeat_sent(&self) {
        self.inner.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_sent.fetch_add(8, Ordering::Relaxed);
    }

    pub(crate) fn on_heartbeat_recv(&self) {
        self.inner.heartbeats_recv.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_recv.fetch_add(8, Ordering::Relaxed);
    }

    pub(crate) fn on_heartbeat_miss(&self) {
        self.inner.heartbeat_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a successful re-establishment of a previously lost
    /// connection. Called by the owners of reconnect policies (peer links,
    /// client sessions), not by the transport itself.
    pub fn on_reconnect(&self) {
        self.inner.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_conn_opened(&self) {
        self.inner.conns_opened.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_conn_failed(&self) {
        self.inner.conns_failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_wakeup(&self) {
        self.inner.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_writev(&self, frames_completed: u64) {
        self.inner.writev_batches.fetch_add(1, Ordering::Relaxed);
        self.inner.frames_flushed.fetch_add(frames_completed, Ordering::Relaxed);
    }

    pub(crate) fn on_conn_registered(&self) {
        self.inner.conns_registered.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_conn_unregistered(&self) {
        self.inner.conns_registered.fetch_sub(1, Ordering::Relaxed);
    }

    /// Read every counter at once.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        let c = &*self.inner;
        NetStatsSnapshot {
            frames_sent: c.frames_sent.load(Ordering::Relaxed),
            frames_recv: c.frames_recv.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: c.bytes_recv.load(Ordering::Relaxed),
            heartbeats_sent: c.heartbeats_sent.load(Ordering::Relaxed),
            heartbeats_recv: c.heartbeats_recv.load(Ordering::Relaxed),
            heartbeat_misses: c.heartbeat_misses.load(Ordering::Relaxed),
            reconnects: c.reconnects.load(Ordering::Relaxed),
            conns_opened: c.conns_opened.load(Ordering::Relaxed),
            conns_failed: c.conns_failed.load(Ordering::Relaxed),
            wakeups: c.wakeups.load(Ordering::Relaxed),
            writev_batches: c.writev_batches.load(Ordering::Relaxed),
            frames_flushed: c.frames_flushed.load(Ordering::Relaxed),
            conns_registered: c.conns_registered.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one endpoint's transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Application frames written.
    pub frames_sent: u64,
    /// Application frames read (CRC-verified).
    pub frames_recv: u64,
    /// Bytes written, headers and heartbeats included.
    pub bytes_sent: u64,
    /// Bytes read, headers and heartbeats included.
    pub bytes_recv: u64,
    /// Idle-time heartbeats written.
    pub heartbeats_sent: u64,
    /// Heartbeats read.
    pub heartbeats_recv: u64,
    /// Heartbeat windows that passed with no traffic at all.
    pub heartbeat_misses: u64,
    /// Connections re-established after a loss.
    pub reconnects: u64,
    /// Connections successfully handshaken (either direction).
    pub conns_opened: u64,
    /// Connection attempts that failed (dial or handshake).
    pub conns_failed: u64,
    /// Event-loop dispatches on behalf of this endpoint's connections
    /// (readiness events plus explicit send/flush wakes).
    pub wakeups: u64,
    /// `writev` syscalls that moved bytes for this endpoint.
    pub writev_batches: u64,
    /// Frames whose final byte left in one of those batches; divided by
    /// `writev_batches` this is the mean frames-per-flush coalescing.
    pub frames_flushed: u64,
    /// Connections currently registered with a reactor (a live gauge, not
    /// a running total — `absorb` sums gauges across endpoints).
    pub conns_registered: u64,
}

impl NetStatsSnapshot {
    /// Accumulate another endpoint's counters into this one (for
    /// cluster-wide totals).
    pub fn absorb(&mut self, o: &NetStatsSnapshot) {
        self.frames_sent += o.frames_sent;
        self.frames_recv += o.frames_recv;
        self.bytes_sent += o.bytes_sent;
        self.bytes_recv += o.bytes_recv;
        self.heartbeats_sent += o.heartbeats_sent;
        self.heartbeats_recv += o.heartbeats_recv;
        self.heartbeat_misses += o.heartbeat_misses;
        self.reconnects += o.reconnects;
        self.conns_opened += o.conns_opened;
        self.conns_failed += o.conns_failed;
        self.wakeups += o.wakeups;
        self.writev_batches += o.writev_batches;
        self.frames_flushed += o.frames_flushed;
        self.conns_registered += o.conns_registered;
    }

    /// Mean frames coalesced per `writev` flush (0.0 before any flush).
    pub fn frames_per_flush(&self) -> f64 {
        if self.writev_batches == 0 {
            0.0
        } else {
            self.frames_flushed as f64 / self.writev_batches as f64
        }
    }
}

impl std::fmt::Display for NetStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frames {}/{} tx/rx, bytes {}/{}, heartbeats {}/{} (misses {}), \
             conns {} (+{} failed), reconnects {}, wakeups {}, \
             writev {} batches / {} frames ({:.2}/flush), registered {}",
            self.frames_sent,
            self.frames_recv,
            self.bytes_sent,
            self.bytes_recv,
            self.heartbeats_sent,
            self.heartbeats_recv,
            self.heartbeat_misses,
            self.conns_opened,
            self.conns_failed,
            self.reconnects,
            self.wakeups,
            self.writev_batches,
            self.frames_flushed,
            self.frames_per_flush(),
            self.conns_registered,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_counters() {
        let a = NetStats::new();
        let b = a.clone();
        b.on_frame_sent(100);
        assert_eq!(a.snapshot().frames_sent, 1);
        assert_eq!(a.snapshot().bytes_sent, 100);
    }

    #[test]
    fn absorb_sums() {
        let mut a = NetStatsSnapshot { frames_sent: 1, bytes_recv: 10, ..Default::default() };
        a.absorb(&NetStatsSnapshot { frames_sent: 2, bytes_recv: 5, ..Default::default() });
        assert_eq!(a.frames_sent, 3);
        assert_eq!(a.bytes_recv, 15);
    }

    #[test]
    fn registered_gauge_rises_and_falls() {
        let s = NetStats::new();
        s.on_conn_registered();
        s.on_conn_registered();
        s.on_conn_unregistered();
        assert_eq!(s.snapshot().conns_registered, 1);
    }

    #[test]
    fn frames_per_flush_mean() {
        let s = NetStats::new();
        assert_eq!(s.snapshot().frames_per_flush(), 0.0);
        s.on_writev(3);
        s.on_writev(1);
        assert_eq!(s.snapshot().frames_per_flush(), 2.0);
    }
}
