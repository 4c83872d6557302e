//! The client half of the data path.
//!
//! [`StoreClient`] turns byte-range I/O on a FID into per-target stripe
//! requests, the way a Lustre client moves data against OSTs after the MDS
//! hands it the object layout:
//!
//! * **Placement**: `MD5(fid) mod N` (the paper's mapping, via
//!   [`Md5Mapping`]) picks the FID's *starting* target; stripe `s` then
//!   lands on `(start + s) mod N` — round-robin, the way Lustre stripes a
//!   file's objects over OSTs, rotated per FID so object 0-stripes spread
//!   over all targets instead of piling onto target 0. The byte-range
//!   split is `backendfs::engine::stripes`, the one the in-memory model
//!   uses to keep a file's stripe chunks on one engine.
//! * **Pipelining**: a striped transfer submits every chunk request to
//!   every target *before* collecting any reply, so all N targets work the
//!   transfer concurrently; per-target FIFO ordering makes matching
//!   trivial and is cross-checked by the echoed `seq`.
//!
//! Targets are pluggable via [`StoreTarget`]: [`LocalTarget`] applies
//! requests to a shared in-process engine (simulation, benches),
//! [`TcpTarget`] speaks `StoreMsg` frames to a `store_server` process.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;
use dufs_backendfs::engine::{range_end, stripes};
use dufs_backendfs::StorageEngine;
use dufs_core::{BackendMapper, Fid, Md5Mapping};
use dufs_net::{connect, Conn, EndpointKind, Hello, NetConfig, NetError, NetStats};
use parking_lot::Mutex;

use crate::msg::{RepBody, ReqOp, StoreRep, StoreReq};
use crate::server::apply_req;

/// One stripe chunk of a transfer: `(target, stripe, within,
/// range-in-buffer)`.
type Chunk = (usize, u64, u32, Range<usize>);

/// How long a [`TcpTarget`] waits for a reply before declaring the server
/// gone. Generous: a group-commit batch under fsync pressure is slow, a
/// dead server is detected by the transport long before this.
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Data-path client error.
#[derive(Debug)]
pub enum StoreError {
    /// Transport failure (server dead, connection torn).
    Net(NetError),
    /// The server answered [`RepBody::Err`].
    Remote(String),
    /// A reply that violates the protocol (bad decode, seq mismatch).
    Protocol(String),
    /// A byte range that ends past `u64::MAX`; nothing was sent.
    Range {
        /// First byte of the range.
        offset: u64,
        /// Its length.
        len: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Net(e) => write!(f, "store transport: {e}"),
            StoreError::Remote(m) => write!(f, "store server error: {m}"),
            StoreError::Protocol(m) => write!(f, "store protocol violation: {m}"),
            StoreError::Range { offset, len } => {
                write!(f, "byte range {offset}+{len} ends past u64::MAX")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<NetError> for StoreError {
    fn from(e: NetError) -> Self {
        StoreError::Net(e)
    }
}

/// One storage target from the client's point of view: submit requests,
/// collect reply frames in the same order.
pub trait StoreTarget: Send {
    /// Queue a request; must not block on the reply.
    fn submit(&mut self, req: &StoreReq<'_>) -> Result<(), StoreError>;
    /// Start moving what was submitted, without waiting for it. A target
    /// that applies requests on `submit` has nothing to do.
    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
    /// Next encoded reply ([`StoreRep::decode`] views it), FIFO with
    /// respect to submitted requests. Flushes first.
    fn recv(&mut self) -> Result<Vec<u8>, StoreError>;
}

/// An in-process target over a shared engine. The mutex makes one target
/// one unit of parallelism — exactly the contention profile a per-target
/// server process has — so benches over [`LocalTarget`]s measure real
/// fan-out.
pub struct LocalTarget<E> {
    engine: Arc<Mutex<E>>,
    pending: VecDeque<Vec<u8>>,
}

impl<E: StorageEngine> LocalTarget<E> {
    /// A target applying requests to `engine`.
    pub fn new(engine: Arc<Mutex<E>>) -> Self {
        LocalTarget { engine, pending: VecDeque::new() }
    }
}

impl<E: StorageEngine> StoreTarget for LocalTarget<E> {
    fn submit(&mut self, req: &StoreReq<'_>) -> Result<(), StoreError> {
        let rep = apply_req(&mut *self.engine.lock(), req);
        self.pending.push_back(rep);
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, StoreError> {
        self.pending
            .pop_front()
            .ok_or_else(|| StoreError::Protocol("recv with no request outstanding".into()))
    }
}

/// A networked target: one pipelined `dufs-net` connection to a
/// `store_server` process.
pub struct TcpTarget {
    conn: Conn,
    rx: Receiver<Vec<u8>>,
}

impl TcpTarget {
    /// Dial a store server. `id` identifies this client in the handshake.
    pub fn connect(addr: SocketAddr, id: u64) -> Result<Self, StoreError> {
        let (conn, rx) = connect(
            addr,
            Hello { kind: EndpointKind::Client, id },
            &NetConfig::default(),
            &NetStats::default(),
        )?;
        Ok(TcpTarget { conn, rx })
    }
}

impl StoreTarget for TcpTarget {
    fn submit(&mut self, req: &StoreReq<'_>) -> Result<(), StoreError> {
        Ok(self.conn.queue(req.encode())?)
    }

    /// Submitted requests leave on the caller's thread, coalesced.
    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(self.conn.flush()?)
    }

    fn recv(&mut self) -> Result<Vec<u8>, StoreError> {
        self.flush()?;
        Ok(self.rx.recv_timeout(RECV_TIMEOUT).map_err(|_| NetError::Closed)?)
    }
}

/// Striping data-path client over `N` targets.
pub struct StoreClient {
    /// `None` once the target's transport has failed: a reply to a request
    /// already sent may still arrive on it (a receive that timed out is not
    /// a hang-up) and would answer the wrong call, so it is never used again.
    targets: Vec<Option<Box<dyn StoreTarget>>>,
    stripe_size: usize,
    mapping: Md5Mapping,
    seq: u64,
}

impl StoreClient {
    /// A client striping `stripe_size`-byte stripes over `targets`.
    pub fn new(targets: Vec<Box<dyn StoreTarget>>, stripe_size: usize) -> Self {
        assert!(!targets.is_empty(), "need at least one target");
        assert!(stripe_size >= 1, "stripe size must be positive");
        let n = targets.len();
        let targets = targets.into_iter().map(Some).collect();
        StoreClient { targets, stripe_size, mapping: Md5Mapping::new(n), seq: 0 }
    }

    /// A client over in-process engines (they may be shared with other
    /// clients — per-target mutexes arbitrate).
    pub fn local<E: StorageEngine + 'static>(
        engines: &[Arc<Mutex<E>>],
        stripe_size: usize,
    ) -> Self {
        let targets = engines
            .iter()
            .map(|e| Box::new(LocalTarget::new(Arc::clone(e))) as Box<dyn StoreTarget>)
            .collect();
        Self::new(targets, stripe_size)
    }

    /// A client dialing one `store_server` per address.
    pub fn tcp(addrs: &[SocketAddr], stripe_size: usize, id: u64) -> Result<Self, StoreError> {
        let targets = addrs
            .iter()
            .map(|&a| Ok(Box::new(TcpTarget::connect(a, id)?) as Box<dyn StoreTarget>))
            .collect::<Result<Vec<_>, StoreError>>()?;
        Ok(Self::new(targets, stripe_size))
    }

    /// Number of storage targets.
    pub fn n_targets(&self) -> usize {
        self.targets.len()
    }

    /// Which target stripe `stripe` of `fid` lives on: `MD5(fid) mod N`
    /// picks the start, stripes walk round-robin from there.
    pub fn target_of(&self, fid: Fid, stripe: u64) -> usize {
        let start = self.mapping.backend_of(fid) as u64;
        ((start + stripe) % self.targets.len() as u64) as usize
    }

    /// Split `[offset, offset+len)` into per-stripe chunks, or refuse a
    /// range that ends past `u64::MAX`.
    fn chunks(&self, fid: Fid, offset: u64, len: usize) -> Result<Vec<Chunk>, StoreError> {
        range_end(offset, len).ok_or(StoreError::Range { offset, len })?;
        Ok(stripes(self.stripe_size, offset, len)
            .map(|(stripe, within, range)| (self.target_of(fid, stripe), stripe, within, range))
            .collect())
    }

    /// One pipelined exchange: request `i` of `n` is `op(i)`, a target and
    /// what to ask it. Every request is submitted before any reply is
    /// awaited, then replies are collected per target in FIFO order and
    /// handed to `sink` with their request index. Every reply that was
    /// asked for is drained even after a failure — a reply left queued
    /// would answer the *next* call — and the first error is returned. A
    /// target whose transport fails is dropped, and every later request to
    /// it fails at once with `Net(Closed)`.
    fn exchange<'d>(
        &mut self,
        n: usize,
        op: impl Fn(usize) -> (usize, ReqOp<'d>),
        mut sink: impl FnMut(usize, RepBody<'_>) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let base = self.seq + 1;
        self.seq += n as u64;
        let mut sent: Vec<usize> = Vec::with_capacity(n);
        let mut first_err = None;
        for i in 0..n {
            let (t, op) = op(i);
            let req = StoreReq { seq: base + i as u64, op };
            let submitted = match self.targets[t].as_mut() {
                Some(target) => target.submit(&req),
                None => Err(NetError::Closed.into()),
            };
            if let Err(e) = submitted {
                self.targets[t] = None;
                first_err = Some(e);
                break;
            }
            sent.push(t);
        }
        // Every target gets its requests before the first wait, so all of
        // them work at once. A failed flush resurfaces at that target's recv.
        for target in self.targets.iter_mut().flatten() {
            let _ = target.flush();
        }
        for t in 0..self.targets.len() {
            for i in (0..sent.len()).filter(|&i| sent[i] == t) {
                let want = base + i as u64;
                let Some(target) = self.targets[t].as_mut() else { break };
                let result = match target.recv() {
                    Ok(frame) => match StoreRep::decode(&frame) {
                        Err(e) => Err(StoreError::Protocol(e.to_string())),
                        Ok(StoreRep { seq, .. }) if seq != want => Err(StoreError::Protocol(
                            format!("target {t}: got seq {seq} want {want}"),
                        )),
                        Ok(StoreRep { body: RepBody::Err(msg), .. }) => {
                            Err(StoreError::Remote(msg.into()))
                        }
                        Ok(StoreRep { body, .. }) => sink(i, body),
                    },
                    Err(e) => {
                        self.targets[t] = None;
                        first_err.get_or_insert(e);
                        break;
                    }
                };
                if let Err(e) = result {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// [`Self::exchange`] of the same request with every target, in target
    /// order.
    fn broadcast(
        &mut self,
        op: ReqOp<'static>,
        sink: impl FnMut(usize, RepBody<'_>) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        self.exchange(self.targets.len(), |t| (t, op), sink)
    }

    /// Striped write: submit every chunk to its target — each encoded
    /// straight from `data` into the frame the transport sends — then
    /// await all acks. Under per-write/group fsync, returning `Ok` means
    /// durable.
    pub fn write(&mut self, fid: Fid, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        let chunks = self.chunks(fid, offset, data.len())?;
        self.exchange(
            chunks.len(),
            |i| {
                let (t, stripe, within, ref range) = chunks[i];
                (t, ReqOp::Write { obj: fid.0, stripe, within, data: &data[range.clone()] })
            },
            |_, rep| match rep {
                RepBody::Written => Ok(()),
                other => Err(StoreError::Protocol(format!("want Written, got {other:?}"))),
            },
        )
    }

    /// Striped read into `out`: every chunk request is in flight before
    /// the first reply is awaited, and each reply's bytes are copied from
    /// its frame into their place in `out` as it arrives. Ranges no target
    /// stores come back as zeros; clamping to a file's logical size is the
    /// metadata layer's job.
    pub fn read_into(&mut self, fid: Fid, offset: u64, out: &mut [u8]) -> Result<(), StoreError> {
        let chunks = self.chunks(fid, offset, out.len())?;
        self.exchange(
            chunks.len(),
            |i| {
                let (t, stripe, within, ref range) = chunks[i];
                (t, ReqOp::Read { obj: fid.0, stripe, within, len: range.len() as u32 })
            },
            |i, rep| {
                let RepBody::Data(data) = rep else {
                    return Err(StoreError::Protocol("want Data".into()));
                };
                let dst = &mut out[chunks[i].3.clone()];
                if data.len() != dst.len() {
                    return Err(StoreError::Protocol(format!(
                        "read reply length {} want {}",
                        data.len(),
                        dst.len()
                    )));
                }
                dst.copy_from_slice(data);
                Ok(())
            },
        )
    }

    /// The written extent of `fid`: max over targets of the per-target
    /// EOF. 0 when nothing is stored. (Logical file size lives in the
    /// metadata service; this is the data-side ground truth.)
    pub fn written_extent(&mut self, fid: Fid) -> Result<u64, StoreError> {
        let ss = self.stripe_size as u64;
        let mut extent = 0u64;
        self.broadcast(ReqOp::Stat(fid.0), |_, rep| {
            let RepBody::Statted(last_stripe) = rep else {
                return Err(StoreError::Protocol("want Statted".into()));
            };
            if let Some((stripe, len)) = last_stripe {
                extent = extent.max(stripe * ss + len as u64);
            }
            Ok(())
        })?;
        Ok(extent)
    }

    /// Delete `fid`'s data on every target. Returns whether any target
    /// stored it.
    pub fn delete(&mut self, fid: Fid) -> Result<bool, StoreError> {
        let mut existed = false;
        self.broadcast(ReqOp::Delete(fid.0), |_, rep| {
            let RepBody::Deleted(e) = rep else {
                return Err(StoreError::Protocol("want Deleted".into()));
            };
            existed |= e;
            Ok(())
        })?;
        Ok(existed)
    }

    /// Durability barrier on every target: when it returns, everything
    /// previously acked is on stable storage regardless of fsync policy.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.broadcast(ReqOp::Sync, |_, rep| match rep {
            RepBody::Synced => Ok(()),
            other => Err(StoreError::Protocol(format!("want Synced, got {other:?}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufs_backendfs::MemEngine;
    use std::io;

    fn mem_client(n: usize, stripe: usize) -> StoreClient {
        let engines: Vec<Arc<Mutex<MemEngine>>> =
            (0..n).map(|_| Arc::new(Mutex::new(MemEngine::new()))).collect();
        StoreClient::local(&engines, stripe)
    }

    #[test]
    fn striped_write_read_roundtrip() {
        let mut c = mem_client(4, 8);
        let fid = Fid::new(1, 1);
        let data: Vec<u8> = (0..100u8).collect();
        c.write(fid, 0, &data).unwrap();
        let mut back = vec![0u8; 100];
        c.read_into(fid, 0, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(c.written_extent(fid).unwrap(), 100);

        let mut mid = vec![0u8; 10];
        c.read_into(fid, 45, &mut mid).unwrap();
        assert_eq!(mid, &data[45..55]);
    }

    #[test]
    fn md5_start_rotates_round_robin() {
        let c = mem_client(4, 8);
        let fid = Fid::new(2, 9);
        let start = c.target_of(fid, 0);
        for s in 0..8 {
            assert_eq!(c.target_of(fid, s), (start + s as usize) % 4);
        }
        // Different FIDs land on different starting targets eventually.
        let starts: std::collections::HashSet<usize> =
            (0..32).map(|i| c.target_of(Fid::new(3, i), 0)).collect();
        assert!(starts.len() > 1, "MD5 placement should spread starts");
    }

    #[test]
    fn holes_read_zero_and_extent_tracks_max() {
        let mut c = mem_client(3, 16);
        let fid = Fid::new(1, 2);
        c.write(fid, 40, b"end").unwrap();
        let mut buf = vec![0xAA; 43];
        c.read_into(fid, 0, &mut buf).unwrap();
        assert_eq!(&buf[..40], &[0u8; 40]);
        assert_eq!(&buf[40..], b"end");
        assert_eq!(c.written_extent(fid).unwrap(), 43);
    }

    #[test]
    fn delete_spans_targets() {
        let mut c = mem_client(2, 4);
        let fid = Fid::new(1, 3);
        c.write(fid, 0, &[5u8; 64]).unwrap();
        assert!(c.delete(fid).unwrap());
        assert!(!c.delete(fid).unwrap());
        assert_eq!(c.written_extent(fid).unwrap(), 0);
    }

    #[test]
    fn a_range_ending_past_u64_max_is_refused_before_any_request() {
        let mut c = mem_client(2, 8);
        let fid = Fid::new(1, 4);
        c.write(fid, 0, b"head").unwrap();
        let refused =
            |e| matches!(e, StoreError::Range { offset, len: 4 } if offset == u64::MAX - 1);
        assert!(refused(c.write(fid, u64::MAX - 1, b"abcd").unwrap_err()));
        let mut buf = [0xAAu8; 4];
        assert!(refused(c.read_into(fid, u64::MAX - 1, &mut buf).unwrap_err()));
        assert_eq!(buf, [0xAA; 4]);
        // Nothing was sent and no target was dropped: every target still
        // answers, and the head of the file is intact.
        assert_eq!(c.written_extent(fid).unwrap(), 4);
        c.read_into(fid, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"head");
    }

    /// A `MemEngine` whose next write to stripe `fail_stripe` fails once.
    struct FailOnce {
        inner: MemEngine,
        fail_stripe: Option<u64>,
    }

    impl StorageEngine for FailOnce {
        fn write(&mut self, obj: u128, stripe: u64, within: u32, data: &[u8]) -> io::Result<()> {
            if self.fail_stripe == Some(stripe) {
                self.fail_stripe = None;
                return Err(io::Error::other("disk on fire"));
            }
            self.inner.write(obj, stripe, within, data)
        }
        fn read(&mut self, o: u128, s: u64, w: u32, out: &mut [u8]) -> io::Result<usize> {
            self.inner.read(o, s, w, out)
        }
        fn truncate(&mut self, o: u128, keep: u64, trim: Option<(u64, u32)>) -> io::Result<()> {
            self.inner.truncate(o, keep, trim)
        }
        fn delete(&mut self, obj: u128) -> io::Result<bool> {
            self.inner.delete(obj)
        }
        fn last_stripe(&self, obj: u128) -> Option<(u64, u32)> {
            self.inner.last_stripe(obj)
        }
        fn bytes_stored(&self) -> u64 {
            self.inner.bytes_stored()
        }
        fn sync(&mut self) -> io::Result<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn a_failed_stripe_leaves_no_stale_reply_for_the_next_call() {
        // Stripe 0 fails on whichever target it lands; the same call's
        // later stripes (on both targets) are still answered and must be
        // drained, or the next call reads them as its own replies.
        let engines: Vec<Arc<Mutex<FailOnce>>> = (0..2)
            .map(|_| {
                Arc::new(Mutex::new(FailOnce { inner: MemEngine::new(), fail_stripe: Some(0) }))
            })
            .collect();
        let mut c = StoreClient::local(&engines, 8);
        let fid = Fid::new(1, 5);
        let data: Vec<u8> = (0..64u8).collect();
        match c.write(fid, 0, &data) {
            Err(StoreError::Remote(msg)) => assert!(msg.contains("disk on fire"), "{msg}"),
            other => panic!("want Remote, got {other:?}"),
        }
        c.write(fid, 0, &data).unwrap();
        let mut back = vec![0u8; 64];
        c.read_into(fid, 0, &mut back).unwrap();
        assert_eq!(back, data);
    }

    /// A target whose first `recv` times out; the reply it was waiting for
    /// arrives afterwards and is what any later `recv` would deliver.
    struct LateReply {
        inner: LocalTarget<MemEngine>,
        timed_out: bool,
    }

    impl StoreTarget for LateReply {
        fn submit(&mut self, req: &StoreReq<'_>) -> Result<(), StoreError> {
            self.inner.submit(req)
        }
        fn recv(&mut self) -> Result<Vec<u8>, StoreError> {
            if !std::mem::replace(&mut self.timed_out, true) {
                return Err(NetError::Closed.into());
            }
            self.inner.recv()
        }
    }

    #[test]
    fn a_timed_out_target_is_dead_not_one_reply_behind() {
        let engine = Arc::new(Mutex::new(MemEngine::new()));
        let late = LateReply { inner: LocalTarget::new(engine), timed_out: false };
        let mut c = StoreClient::new(vec![Box::new(late)], 8);
        let fid = Fid::new(1, 6);
        assert!(matches!(c.write(fid, 0, b"first"), Err(StoreError::Net(_))));
        // The first write's reply is still queued on the target. Served to
        // the second call it reads "got seq 1 want 2", and every call after
        // that is one reply behind in the same way.
        for _ in 0..2 {
            match c.write(fid, 0, b"again") {
                Err(StoreError::Net(_)) => {}
                other => panic!("want Net, got {other:?}"),
            }
        }
    }

    #[test]
    fn sync_reaches_all_targets() {
        let mut c = mem_client(3, 8);
        c.write(Fid::new(1, 4), 0, b"x").unwrap();
        c.sync().unwrap();
    }
}
