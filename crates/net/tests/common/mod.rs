//! Shared by the socket-backed suites: an echo server on the demultiplexed
//! accept stream, the way every real server in the tree consumes it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dufs_net::{AcceptHandle, ConnEvent, EndpointKind, Hello, Listener, NetConfig, NetStats};

/// Serve `listener` with one owner thread that echoes every inbound frame
/// on the connection it arrived on. Setting `kill` makes the thread drop
/// every connection it holds and exit — a hard server death, as opposed to
/// [`AcceptHandle::stop`], which only stops accepting.
pub fn spawn_echo(
    listener: Listener,
    cfg: NetConfig,
    stats: NetStats,
    kill: Arc<AtomicBool>,
) -> AcceptHandle {
    let (accept, events) =
        listener.spawn_accept_demux(Hello { kind: EndpointKind::Server, id: 0 }, cfg, stats);
    std::thread::spawn(move || {
        let mut conns = HashMap::new();
        while !kill.load(Ordering::SeqCst) {
            match events.recv_timeout(Duration::from_millis(5)) {
                Ok(ConnEvent::Opened { id, conn }) => {
                    conns.insert(id, conn);
                }
                Ok(ConnEvent::Frame { id, payload }) => {
                    if let Some(conn) = conns.get(&id) {
                        let _ = conn.send(payload);
                    }
                }
                Ok(ConnEvent::Closed { id }) => {
                    conns.remove(&id);
                }
                Err(_) => {}
            }
        }
    });
    accept
}
