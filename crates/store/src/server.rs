//! The store server: one storage target served over `dufs-net` frames.
//!
//! A [`StoreServer`] owns one [`StorageEngine`] and a demux accept loop
//! (PR 7's `ConnEvent` delivery): a single owner thread services every
//! client connection, draining whatever requests have arrived, applying
//! them in arrival order, and answering on the originating connection.
//!
//! Durability follows the engine's [`FsyncPolicy`]: under `Group` the
//! drained batch is applied, then ONE `engine.sync()` runs, and only then
//! are the batch's replies queued and flushed, on the owner thread before
//! it waits for the next batch — WAL-style group commit, so an acked
//! mutation is always durable at the cost of one fsync per batch rather
//! than one per write. `PerWrite` engines sync internally; `None` syncs
//! only when a client sends an explicit `Sync` barrier.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::RecvTimeoutError;
use dufs_backendfs::StorageEngine;
use dufs_net::{ConnEvent, EndpointKind, Hello, Listener, NetConfig, NetStats, MAX_FRAME};

use crate::file::{chunk_end, FsyncPolicy};
use crate::msg::{RepBody, ReqOp, StoreRep, StoreReq};

/// Apply one request to an engine and build the encoded reply frame.
/// Shared by the networked server and the in-process
/// [`LocalTarget`](crate::LocalTarget), so every delivery path has
/// identical semantics. A `Write`'s bytes go to the engine straight from
/// the request (a view over the received frame); a `Read`'s bytes are read
/// straight into the reply frame.
pub fn apply_req<E: StorageEngine>(engine: &mut E, req: &StoreReq<'_>) -> Vec<u8> {
    let seq = req.seq;
    let reply = |body: RepBody<'_>| StoreRep { seq, body }.encode();
    let result = match req.op {
        // A write ending past a chunk's `u32` offsets never reaches an engine.
        ReqOp::Write { obj, stripe, within, data } => chunk_end(within, data.len())
            .and_then(|_| engine.write(obj, stripe, within, data))
            .map(|()| reply(RepBody::Written)),
        // The reply carries `DATA_AT` bytes of its own before the data.
        ReqOp::Read { len, .. } if StoreRep::DATA_AT + len as usize > MAX_FRAME => {
            Err(io::Error::new(io::ErrorKind::InvalidInput, "read longer than a frame"))
        }
        ReqOp::Read { obj, stripe, within, len } => {
            // Short fills stay zero — the reply is always `len` bytes.
            let mut frame = StoreRep::zeroed_data_frame(seq, len);
            engine.read(obj, stripe, within, &mut frame[StoreRep::DATA_AT..]).map(|_| frame)
        }
        ReqOp::Stat(obj) => Ok(reply(RepBody::Statted(engine.last_stripe(obj)))),
        ReqOp::Delete(obj) => engine.delete(obj).map(|existed| reply(RepBody::Deleted(existed))),
        ReqOp::Sync => engine.sync().map(|()| reply(RepBody::Synced)),
    };
    result.unwrap_or_else(|e| reply(RepBody::Err(&e.to_string())))
}

/// A running store server: accept loop + owner thread around one engine.
pub struct StoreServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<dufs_net::AcceptHandle>,
    thread: Option<JoinHandle<()>>,
}

impl StoreServer {
    /// Bind `addr` (port 0 picks a free port) and serve `engine` under
    /// `policy` until [`StoreServer::stop`] or drop. `id` goes into the
    /// server's `Hello` for diagnostics.
    pub fn spawn<E: StorageEngine + 'static>(
        addr: SocketAddr,
        engine: E,
        policy: FsyncPolicy,
        id: u64,
    ) -> io::Result<StoreServer> {
        let listener = Listener::bind(addr)?;
        let addr = listener.local_addr();
        let stats = NetStats::default();
        let (accept, events) = listener.spawn_accept_demux(
            Hello { kind: EndpointKind::Server, id },
            NetConfig::default(),
            stats,
        );
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(format!("store-server-{id}"))
            .spawn(move || serve(engine, policy, events, stop2))
            .expect("spawn store-server thread");
        Ok(StoreServer { addr, stop, accept: Some(accept), thread: Some(thread) })
    }

    /// The bound address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the owner thread, drop every connection.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(accept) = self.accept.take() {
            accept.stop();
        }
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for StoreServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// The owner loop: drain events, apply the batch in order, group-sync,
/// then ack. Replies to connections that died mid-batch are dropped.
fn serve<E: StorageEngine>(
    mut engine: E,
    policy: FsyncPolicy,
    events: crossbeam::channel::Receiver<ConnEvent>,
    stop: Arc<AtomicBool>,
) {
    let mut conns: HashMap<u64, dufs_net::Conn> = HashMap::new();
    // Received frames, kept as they arrived and decoded (a borrowed view)
    // only when applied.
    let mut batch: Vec<(u64, Vec<u8>)> = Vec::new();
    // Connections with replies queued, flushed before the next wait.
    let mut written: Vec<u64> = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Block briefly for the first event, then drain whatever else is
        // already queued — that drained set is the group-commit batch.
        let first = match events.recv_timeout(Duration::from_millis(50)) {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let queued = std::iter::from_fn(|| events.try_recv().ok());
        for ev in std::iter::once(first).chain(queued) {
            match ev {
                ConnEvent::Opened { id, conn } => {
                    conns.insert(id, conn);
                }
                ConnEvent::Closed { id } => {
                    conns.remove(&id);
                }
                ConnEvent::Frame { id, payload } => batch.push((id, payload)),
            }
        }

        // (connection, seq, encoded reply)
        let mut replies: Vec<(u64, u64, Vec<u8>)> = Vec::with_capacity(batch.len());
        let mut mutated = false;
        for (conn_id, frame) in batch.drain(..) {
            if !conns.contains_key(&conn_id) {
                continue;
            }
            match StoreReq::decode(&frame) {
                Ok(req) => {
                    mutated |= req.is_mutation();
                    replies.push((conn_id, req.seq, apply_req(&mut engine, &req)));
                }
                // The framing CRC already rules out corruption, so this is
                // a protocol mismatch: hang up (dropping the `Conn` closes
                // it), and the client fails at once instead of waiting out
                // its receive timeout.
                Err(_) => {
                    conns.remove(&conn_id);
                }
            }
        }
        // Group commit: one sync covers every mutation in the batch, and
        // no ack leaves before it. An fsync failure poisons all acks.
        if mutated && policy == FsyncPolicy::Group {
            if let Err(e) = engine.sync() {
                let msg = format!("group sync: {e}");
                for (_, seq, frame) in &mut replies {
                    *frame = StoreRep { seq: *seq, body: RepBody::Err(&msg) }.encode();
                }
            }
        }
        for (conn_id, _, frame) in replies {
            if let Some(conn) = conns.get(&conn_id) {
                if conn.queue(frame).is_err() {
                    conns.remove(&conn_id);
                } else if !written.contains(&conn_id) {
                    written.push(conn_id);
                }
            }
        }
        // The batch's acks leave on this thread, before it waits again.
        for conn_id in written.drain(..) {
            if conns.get(&conn_id).is_some_and(|conn| conn.flush().is_err()) {
                conns.remove(&conn_id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufs_backendfs::MemEngine;

    #[test]
    fn apply_req_covers_every_variant() {
        let mut e = MemEngine::new();
        let mut apply = |seq, op, body| {
            let frame = apply_req(&mut e, &StoreReq { seq, op });
            assert_eq!(StoreRep::decode(&frame).unwrap(), StoreRep { seq, body }, "{op:?}");
        };
        apply(1, ReqOp::Write { obj: 5, stripe: 0, within: 2, data: b"hi" }, RepBody::Written);
        // Fixed-length, zero-filled reply.
        let read = ReqOp::Read { obj: 5, stripe: 0, within: 0, len: 6 };
        apply(2, read, RepBody::Data(b"\0\0hi\0\0"));
        apply(3, ReqOp::Stat(5), RepBody::Statted(Some((0, 4))));
        apply(4, ReqOp::Stat(99), RepBody::Statted(None));
        apply(5, ReqOp::Sync, RepBody::Synced);
        apply(6, ReqOp::Delete(5), RepBody::Deleted(true));
        apply(7, ReqOp::Delete(5), RepBody::Deleted(false));
        // A read whose reply no frame could carry is refused before any
        // allocation: one the size of a frame leaves no room for the
        // reply's own head.
        for (seq, len) in [(8, u32::MAX), (9, MAX_FRAME as u32)] {
            let op = ReqOp::Read { obj: 5, stripe: 0, within: 0, len };
            let frame = apply_req(&mut e, &StoreReq { seq, op });
            assert!(frame.len() <= MAX_FRAME, "len {len}: a {}-byte reply", frame.len());
            let rep = StoreRep::decode(&frame).unwrap();
            assert!(matches!(rep, StoreRep { body: RepBody::Err(_), .. }), "{rep:?}");
            assert_eq!(rep.seq, seq);
        }
        // The largest read a frame can carry is served.
        let len = (MAX_FRAME - StoreRep::DATA_AT) as u32;
        let frame = apply_req(
            &mut e,
            &StoreReq { seq: 10, op: ReqOp::Read { obj: 5, stripe: 0, within: 0, len } },
        );
        assert_eq!(frame.len(), MAX_FRAME);
        assert!(
            matches!(StoreRep::decode(&frame).unwrap().body, RepBody::Data(d) if d.len() == len as usize)
        );
    }

    #[test]
    fn a_write_ending_past_a_chunks_u32_offsets_is_refused_and_the_server_goes_on() {
        use crate::{FileEngine, StoreTarget, TcpTarget};

        let dir = std::env::temp_dir().join(format!("dufs-store-past-u32-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
        let any = "127.0.0.1:0".parse().unwrap();
        let server = StoreServer::spawn(any, engine, FsyncPolicy::Group, 1).unwrap();
        let mut t = TcpTarget::connect(server.addr(), 7).unwrap();
        let mut ask = |seq, op| {
            t.submit(&StoreReq { seq, op }).unwrap();
            let raw = t.recv().unwrap();
            let rep = StoreRep::decode(&raw).unwrap();
            assert_eq!(rep.seq, seq);
            format!("{:?}", rep.body)
        };
        let past = ReqOp::Write { obj: 1, stripe: 0, within: u32::MAX, data: b"ab" };
        assert!(ask(1, past).starts_with("Err("), "an over-long write is refused");
        let last = ReqOp::Write { obj: 1, stripe: 0, within: u32::MAX - 2, data: b"ab" };
        assert_eq!(ask(2, last), "Written", "one ending inside the chunk is served");
        assert_eq!(ask(3, ReqOp::Stat(1)), format!("Statted(Some((0, {})))", u32::MAX));
        server.stop();
        // Nothing unreadable reached the log: it reopens.
        assert_eq!(
            FileEngine::open(&dir, FsyncPolicy::Group).unwrap().last_stripe(1).unwrap().1,
            u32::MAX
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_undecodable_frame_hangs_up_that_connection_only() {
        use crate::StoreClient;
        use dufs_core::Fid;

        let any = "127.0.0.1:0".parse().unwrap();
        let server = StoreServer::spawn(any, MemEngine::new(), FsyncPolicy::Group, 1).unwrap();
        let mut good = StoreClient::tcp(&[server.addr()], 16, 1).unwrap();
        good.write(Fid::new(1, 1), 0, b"before the rogue").unwrap();

        let (rogue, rogue_rx) = dufs_net::connect(
            server.addr(),
            Hello { kind: EndpointKind::Client, id: 99 },
            &NetConfig::default(),
            &NetStats::default(),
        )
        .unwrap();
        rogue.send(vec![0xFF; 9]).unwrap();
        // The channel disconnects when the server closes the socket; a
        // server that merely ignored the frame would leave it open and
        // this would time out instead.
        assert_eq!(
            rogue_rx.recv_timeout(Duration::from_secs(10)),
            Err(RecvTimeoutError::Disconnected),
            "the rogue connection must be closed, not left waiting"
        );

        let mut back = [0u8; 16];
        good.read_into(Fid::new(1, 1), 0, &mut back).unwrap();
        assert_eq!(&back, b"before the rogue");
        good.write(Fid::new(1, 2), 0, b"after").unwrap();
        server.stop();
    }
}
