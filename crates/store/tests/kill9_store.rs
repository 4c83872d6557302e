//! Out-of-process crash recovery for the data path: real `store_server`
//! processes, real `SIGKILL` mid-write, no in-process shortcuts. (One more
//! test here holds a live `store_server` to its protocol-mismatch rule: a
//! frame it cannot decode closes that connection at once.)
//!
//! The invariant under `--fsync group` is the WAL's: **an acked write is
//! durable**. The harness streams striped writes from a client thread,
//! recording each FID's CRC the moment its write is acknowledged;
//! SIGKILLs one server mid-stream (whatever write is in flight is allowed
//! to vanish — it was never acked); respawns a server over the *same*
//! target directory on a fresh port (the durable identity is the
//! directory, not the address); and asserts every acked FID reads back
//! with its CRC intact.

#![cfg(unix)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crossbeam::channel::RecvTimeoutError;
use dufs_core::Fid;
use dufs_net::{EndpointKind, Hello, NetConfig, NetStats};
use dufs_store::{crc32, ReqOp, StoreClient, StoreError, StoreReq};

// ------------------------------------------------------------ process tools

/// `n` distinct free loopback ports (held simultaneously while probing so
/// they cannot collide with each other).
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let held: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("probe port")).collect();
    held.iter().map(|l| l.local_addr().unwrap()).collect()
}

/// Spawn one `store_server` and wait for its `READY` line.
fn spawn_server(dir: &Path, addr: SocketAddr, fsync: &str) -> Child {
    let mut child = Command::new(env!("CARGO_BIN_EXE_store_server"))
        .arg("--dir")
        .arg(dir)
        .arg("--listen")
        .arg(addr.to_string())
        .arg("--fsync")
        .arg(fsync)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn store_server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("READY line");
    assert!(line.starts_with("READY "), "unexpected banner: {line:?}");
    child
}

/// SIGKILL — no shutdown hooks, no flushes, the real failure mode.
fn kill9(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Retry `f` until it succeeds or the deadline passes; transport errors
/// are expected while a server is down or restarting.
fn until_ok<T>(mut f: impl FnMut() -> Result<T, StoreError>) -> T {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match f() {
            Ok(v) => return v,
            Err(e) => {
                assert!(Instant::now() < deadline, "deadline expired, last error: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

fn target_dirs(tag: &str, n: usize) -> Vec<PathBuf> {
    (0..n)
        .map(|t| {
            let d = std::env::temp_dir()
                .join(format!("dufs-store-kill9-{tag}-{}-{t}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            d
        })
        .collect()
}

/// Deterministic per-FID contents so verification needs no shared state.
fn contents(fid: Fid, len: usize) -> Vec<u8> {
    let mut state = fid.0 as u64 ^ (fid.0 >> 64) as u64 ^ 0x9E37_79B9_7F4A_7C15;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

const TARGETS: usize = 2;
const STRIPE: usize = 64;

#[test]
fn sigkill_mid_write_loses_no_acked_data() {
    let dirs = target_dirs("midwrite", TARGETS);
    let addrs = free_addrs(TARGETS);
    let mut children: Vec<Child> =
        dirs.iter().zip(&addrs).map(|(d, &a)| spawn_server(d, a, "group")).collect();

    // Stream writes, recording (fid -> crc) only once acked. The writer
    // runs in its own thread so the kill genuinely lands mid-stream; the
    // shared counter lets the main thread time the kill after a real
    // stream exists instead of guessing with a sleep.
    let progress = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let w_progress = std::sync::Arc::clone(&progress);
    let w_addrs = addrs.clone();
    let writer = std::thread::spawn(move || {
        let mut acked: HashMap<u64, u32> = HashMap::new();
        let mut client = match StoreClient::tcp(&w_addrs, STRIPE, 1) {
            Ok(c) => c,
            Err(_) => return acked,
        };
        for i in 0.. {
            let fid = Fid::new(1, i);
            let data = contents(fid, 200 + (i as usize % 5) * 90);
            match client.write(fid, 0, &data) {
                Ok(()) => {
                    acked.insert(i, crc32(&data));
                    w_progress.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
                // First transport error = the kill landed. Everything
                // acked so far is the durable obligation.
                Err(_) => break,
            }
        }
        acked
    });

    // Wait for a real stream of acks, then SIGKILL target 0 mid-write.
    let deadline = Instant::now() + Duration::from_secs(30);
    while progress.load(std::sync::atomic::Ordering::SeqCst) < 25 {
        assert!(Instant::now() < deadline, "writer made no progress");
        std::thread::sleep(Duration::from_millis(10));
    }
    kill9(&mut children[0]);
    let acked = writer.join().expect("writer thread");
    assert!(
        acked.len() > 10,
        "harness needs a real stream before the kill (got {} acked writes)",
        acked.len()
    );

    // Restart over the SAME directory on a fresh port.
    let new_addr = free_addrs(1)[0];
    children[0] = spawn_server(&dirs[0], new_addr, "group");
    let mut addrs2 = addrs.clone();
    addrs2[0] = new_addr;

    let mut client = until_ok(|| StoreClient::tcp(&addrs2, STRIPE, 2));
    for (&i, &crc) in &acked {
        let fid = Fid::new(1, i);
        let expect = contents(fid, 200 + (i as usize % 5) * 90);
        let extent = until_ok(|| client.written_extent(fid)) as usize;
        assert_eq!(extent, expect.len(), "acked fid {i} lost bytes");
        let mut back = vec![0u8; extent];
        until_ok(|| client.read_into(fid, 0, &mut back));
        assert_eq!(crc32(&back), crc, "acked fid {i} corrupt after recovery");
        assert_eq!(back, expect);
    }

    for c in &mut children {
        kill9(c);
    }
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn sigkill_whole_fleet_then_restart_recovers() {
    let dirs = target_dirs("fleet", TARGETS);
    let addrs = free_addrs(TARGETS);
    let mut children: Vec<Child> =
        dirs.iter().zip(&addrs).map(|(d, &a)| spawn_server(d, a, "group")).collect();

    let mut client = until_ok(|| StoreClient::tcp(&addrs, STRIPE, 1));
    let mut acked: HashMap<u64, u32> = HashMap::new();
    for i in 0..60u64 {
        let fid = Fid::new(2, i);
        let data = contents(fid, 150 + (i as usize % 7) * 40);
        client.write(fid, 0, &data).unwrap();
        acked.insert(i, crc32(&data));
    }
    // Kill everything at once — no orderly shutdown anywhere.
    for c in &mut children {
        kill9(c);
    }

    let new_addrs = free_addrs(TARGETS);
    let _children: Vec<Child> =
        dirs.iter().zip(&new_addrs).map(|(d, &a)| spawn_server(d, a, "group")).collect();
    let mut client = until_ok(|| StoreClient::tcp(&new_addrs, STRIPE, 2));
    for (&i, &crc) in &acked {
        let fid = Fid::new(2, i);
        let extent = until_ok(|| client.written_extent(fid)) as usize;
        let mut back = vec![0u8; extent];
        until_ok(|| client.read_into(fid, 0, &mut back));
        assert_eq!(crc32(&back), crc, "fid {i} corrupt after whole-fleet restart");
    }

    let mut children = _children;
    for c in &mut children {
        kill9(c);
    }
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A frame that passes the transport's CRC but not the store codec means
/// the other end speaks something else. The server must close that
/// connection at once — a client left waiting would only learn of it from
/// its 30 s receive timeout — and go on serving every other connection.
#[test]
fn an_undecodable_frame_is_hung_up_at_once() {
    /// Kills the server however the test ends, a failed assertion included.
    struct Reaper(Child);
    impl Drop for Reaper {
        fn drop(&mut self) {
            kill9(&mut self.0);
        }
    }
    let dirs = target_dirs("rogue", 1);
    let addr = free_addrs(1)[0];
    let _server = Reaper(spawn_server(&dirs[0], addr, "group"));
    let mut good = until_ok(|| StoreClient::tcp(&[addr], STRIPE, 1));
    good.write(Fid::new(3, 1), 0, b"before the rogue").unwrap();

    let hello = Hello { kind: EndpointKind::Client, id: 99 };
    let (rogue, rogue_rx) =
        dufs_net::connect(addr, hello, &NetConfig::default(), &NetStats::default()).unwrap();
    // A write whose payload the frame does not hold: the decoder reads a
    // length prefix it cannot satisfy.
    let op = ReqOp::Write { obj: 9, stripe: 0, within: 0, data: &[1; 32] };
    let raw = StoreReq { seq: 1, op }.encode();
    let sent = Instant::now();
    rogue.send(raw[..raw.len() - 1].to_vec()).unwrap();
    // The channel disconnects when the server closes the socket; one that
    // ignored the frame would leave it open and this would time out.
    assert_eq!(rogue_rx.recv_timeout(Duration::from_secs(5)), Err(RecvTimeoutError::Disconnected));
    assert!(sent.elapsed() < Duration::from_secs(5), "hung up after {:?}", sent.elapsed());

    let mut back = [0u8; 16];
    good.read_into(Fid::new(3, 1), 0, &mut back).unwrap();
    assert_eq!(&back, b"before the rogue");
    good.write(Fid::new(3, 2), 0, b"after").unwrap();
    let mut after = [0u8; 5];
    good.read_into(Fid::new(3, 2), 0, &mut after).unwrap();
    assert_eq!(&after, b"after");
    let _ = std::fs::remove_dir_all(&dirs[0]);
}
