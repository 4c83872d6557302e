//! Per-layer probes: each layer's public functions timed in isolation
//! (on requests captured from the traced trial where the input matters),
//! plus short differential runs of a create/delete loop on
//! {1, 3} voters × {durable, volatile} ensembles.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dufs_backendfs::{MemEngine, StorageEngine};
use dufs_coord::{ClientFrame, ServerFrame, ZkRequest, ZkResponse};
use dufs_core::services::SoloCoord;
use dufs_core::{BackendMapper, CoordService, Fid, FidGenerator, Md5Mapping, NodeMeta};
use dufs_net::{
    connect, write_frame, Conn, ConnEvent, EndpointKind, Frame, FrameDecoder, Hello, Listener,
    NetConfig, NetStats, Wire, MAX_FRAME,
};
use dufs_store::{FileEngine, FsyncPolicy, StoreClient, StoreServer};
use dufs_wal::{FileStorage, Wal, WalConfig};
use dufs_zkstore::{snapshot, CreateMode, DataTree};

use crate::stack::{Ensemble, STRIPE, VOTERS};
use crate::util::{self, p50_us, Rng};
use crate::workloads::{create_all, resident_dir, FILES_PER_DIR as FILES, RESIDENT_DIRS as DIRS};

pub type Metrics = BTreeMap<&'static str, f64>;

const BLOCK: usize = 64 << 10;

fn file_meta(fids: &mut FidGenerator) -> Bytes {
    NodeMeta::file(fids.next_fid(), 0o644).encode()
}

fn create_req(path: String, data: Bytes) -> ZkRequest {
    ZkRequest::Create { path, data, mode: CreateMode::Persistent }
}

fn mb_per_s(bytes: usize, elapsed: Duration) -> f64 {
    bytes as f64 / 1e6 / elapsed.as_secs_f64()
}

/// Run every probe; `captured` are request/response pairs seen at the
/// session boundary during the traced trial.
pub fn run_all(
    dir: &Path,
    seed: u64,
    captured: &[(ZkRequest, ZkResponse)],
    m: &mut Metrics,
) -> Result<(), String> {
    let mut rng = Rng::new(seed, 0x9B0B);
    let mut block = vec![0u8; BLOCK];
    rng.fill(&mut block);

    core_probe(m);
    wire_probe(captured, m);
    server_apply_probe(&mut rng, m);
    wal_probe(&dir.join("probe-wal"), captured, &block, m)?;
    zkstore_probe(&mut rng, m);
    net_codec_probe(&block, m);
    net_echo_probe(&block, m)?;
    store_probe(&dir.join("probe-store"), &block, m)?;
    diff_stage(dir, m)
}

fn core_probe(m: &mut Metrics) {
    let mapper = Md5Mapping::new(2);
    let mut gen = FidGenerator::new(7);
    let fids: Vec<Fid> = (0..50_000).map(|_| gen.next_fid()).collect();
    let t = Instant::now();
    let acc: usize = fids.iter().map(|&f| mapper.backend_of(black_box(f))).sum();
    black_box(acc);
    m.insert("core.md5_map_ns", t.elapsed().as_nanos() as f64 / fids.len() as f64);
}

fn wire_probe(captured: &[(ZkRequest, ZkResponse)], m: &mut Metrics) {
    let mut fids = FidGenerator::new(9);
    let mut pairs = captured.to_vec();
    pairs.push((
        create_req("/r000/f000".into(), file_meta(&mut fids)),
        ZkResponse::Created { path: "/r000/f000".into() },
    ));
    let frames: Vec<(ClientFrame, ServerFrame)> = pairs
        .into_iter()
        .map(|(req, resp)| {
            (
                ClientFrame::Request { req_id: 1, session: 1, req },
                ServerFrame::Resp { req_id: 1, resp },
            )
        })
        .collect();
    let rounds = 20_000 / frames.len() + 1;
    let messages = (2 * rounds * frames.len()) as f64;
    let t = Instant::now();
    for _ in 0..rounds {
        for (c, s) in &frames {
            black_box(c.to_wire());
            black_box(s.to_wire());
        }
    }
    m.insert("coord.wire_encode_ns", t.elapsed().as_nanos() as f64 / messages);
    let wires: Vec<(Vec<u8>, Vec<u8>)> =
        frames.iter().map(|(c, s)| (c.to_wire(), s.to_wire())).collect();
    let t = Instant::now();
    for _ in 0..rounds {
        for (c, s) in &wires {
            black_box(ClientFrame::from_wire(c).is_ok());
            black_box(ServerFrame::from_wire(s).is_ok());
        }
    }
    m.insert("coord.wire_decode_ns", t.elapsed().as_nanos() as f64 / messages);
}

/// `CoordServer::handle` with no network, quorum or disk under it: a
/// one-member in-process ensemble holding the resident namespace.
fn server_apply_probe(rng: &mut Rng, m: &mut Metrics) {
    let mut solo = SoloCoord::new();
    let mut fids = FidGenerator::new(11);
    for d in 0..DIRS {
        solo.request(create_all(resident_dir(d, &mut fids).0));
    }
    let n = 2_000;
    let t = Instant::now();
    for i in 0..n {
        let path = format!("/r{:03}/p{i}", i % DIRS);
        black_box(solo.request(create_req(path.clone(), file_meta(&mut fids))));
        black_box(solo.request(ZkRequest::Delete { path, version: None }));
    }
    m.insert("coord.server_apply_write_us", t.elapsed().as_nanos() as f64 / 1e3 / (2 * n) as f64);
    let paths: Vec<String> =
        (0..10_000).map(|_| format!("/r{:03}/f{:03}", rng.below(DIRS), rng.below(FILES))).collect();
    let t = Instant::now();
    for path in &paths {
        black_box(solo.request(ZkRequest::GetData { path: path.clone(), watch: false }));
    }
    m.insert(
        "coord.server_apply_read_us",
        t.elapsed().as_nanos() as f64 / 1e3 / paths.len() as f64,
    );
}

fn wal_probe(
    dir: &Path,
    captured: &[(ZkRequest, ZkResponse)],
    block: &[u8],
    m: &mut Metrics,
) -> Result<(), String> {
    // Record size: what the workload's own writes encode to, when it made any.
    let record = captured.iter().find(|(req, _)| !req.is_read()).map_or(96, |(req, _)| {
        ClientFrame::Request { req_id: 1, session: 1, req: req.clone() }.to_wire().len()
    });
    let storage = FileStorage::new(dir).map_err(|e| format!("wal probe dir: {e}"))?;
    let (mut wal, _) = Wal::open(Box::new(storage), WalConfig::default())
        .map_err(|e| format!("wal probe open: {e}"))?;
    let payload = &block[..record.min(block.len())];
    let (mut append, mut sync) = (Vec::new(), Vec::new());
    for zxid in 1..=300u64 {
        let t = Instant::now();
        wal.append_txn(zxid, payload).map_err(|e| format!("wal append: {e}"))?;
        append.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        wal.sync().map_err(|e| format!("wal sync: {e}"))?;
        sync.push(t.elapsed().as_nanos() as u64);
    }
    m.insert("wal.append_us", p50_us(&mut append));
    m.insert("wal.sync_us", p50_us(&mut sync));
    let rounds = 256;
    let t = Instant::now();
    for _ in 0..rounds {
        black_box(dufs_wal::crc32(black_box(block)));
    }
    m.insert("wal.crc32_mb_s", mb_per_s(rounds * block.len(), t.elapsed()));
    Ok(())
}

fn zkstore_probe(rng: &mut Rng, m: &mut Metrics) {
    let mut tree = DataTree::new();
    let mut fids = FidGenerator::new(13);
    let nodes: Vec<(String, Bytes)> =
        (0..DIRS).flat_map(|d| resident_dir(d, &mut fids).0).collect();
    let t = Instant::now();
    for (i, (path, data)) in nodes.iter().enumerate() {
        let zxid = i as u64 + 1;
        let _ = tree.create(path, data.clone(), CreateMode::Persistent, 0, zxid, zxid);
    }
    let zxid = nodes.len();
    m.insert("zkstore.create_ns", t.elapsed().as_nanos() as f64 / zxid as f64);
    let paths: Vec<String> =
        (0..50_000).map(|_| format!("/r{:03}/f{:03}", rng.below(DIRS), rng.below(FILES))).collect();
    let t = Instant::now();
    for p in &paths {
        black_box(tree.exists(p).is_ok());
    }
    m.insert("zkstore.exists_ns", t.elapsed().as_nanos() as f64 / paths.len() as f64);
    let mut encode_ns = Vec::new();
    let mut bytes = 0;
    for _ in 0..5 {
        let t = Instant::now();
        bytes = black_box(snapshot::encode(&tree)).len();
        encode_ns.push(t.elapsed().as_nanos() as u64);
    }
    m.insert("zkstore.snapshot_ms", p50_us(&mut encode_ns) / 1e3);
    m.insert("zkstore.snapshot_bytes", bytes as f64);
    m.insert("zkstore.bytes_per_znode", tree.memory_bytes() as f64 / tree.node_count() as f64);
}

fn net_codec_probe(block: &[u8], m: &mut Metrics) {
    let rounds = 256;
    let t = Instant::now();
    for _ in 0..rounds {
        black_box(dufs_net::crc32(black_box(block)));
    }
    m.insert("net.crc32_mb_s", mb_per_s(rounds * block.len(), t.elapsed()));

    let stats = NetStats::new();
    let mut sink = Vec::with_capacity(block.len() + 8);
    let t = Instant::now();
    for _ in 0..rounds {
        sink.clear();
        write_frame(&mut sink, black_box(block), &stats).expect("write to a Vec cannot fail");
    }
    m.insert("net.frame_encode_mb_s", mb_per_s(rounds * block.len(), t.elapsed()));

    let mut decoder = FrameDecoder::new(MAX_FRAME);
    let mut frames = 0usize;
    let t = Instant::now();
    for _ in 0..rounds {
        decoder
            .feed(&sink, &mut |f| {
                if let Frame::Msg(p) = f {
                    frames += black_box(p).len() / block.len();
                }
            })
            .expect("frames this probe encoded decode");
    }
    assert_eq!(frames, rounds);
    m.insert("net.frame_decode_mb_s", mb_per_s(rounds * block.len(), t.elapsed()));
}

/// A loopback echo server on the real transport: demux delivery, one
/// owner thread, exactly how the coordination and store servers use it.
fn net_echo_probe(block: &[u8], m: &mut Metrics) -> Result<(), String> {
    let cfg = NetConfig::default();
    let any: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
    let listener = Listener::bind(any).map_err(|e| format!("echo bind: {e}"))?;
    let addr = listener.local_addr();
    let (accept, events) = listener.spawn_accept_demux(
        Hello { kind: EndpointKind::Server, id: 0 },
        cfg,
        NetStats::new(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let server = std::thread::spawn(move || {
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        while !stop2.load(Ordering::SeqCst) {
            match events.recv_timeout(Duration::from_millis(20)) {
                Ok(ConnEvent::Opened { id, conn }) => {
                    conns.insert(id, conn);
                }
                Ok(ConnEvent::Frame { id, payload }) => {
                    if let Some(c) = conns.get(&id) {
                        let _ = c.send(payload);
                    }
                }
                Ok(ConnEvent::Closed { id }) => {
                    conns.remove(&id);
                }
                Err(_) => {}
            }
        }
    });
    let result = (|| -> Result<(), String> {
        let stats = NetStats::new();
        let hello = Hello { kind: EndpointKind::Client, id: 0 };
        let (conn, rx) =
            connect(addr, hello, &cfg, &stats).map_err(|e| format!("echo dial: {e}"))?;
        let wait = Duration::from_secs(5);
        let mut rtt = Vec::with_capacity(3_000);
        for _ in 0..3_000 {
            let t = Instant::now();
            conn.send(block[..64].to_vec()).map_err(|e| format!("echo send: {e}"))?;
            rx.recv_timeout(wait).map_err(|_| "echo reply timed out")?;
            rtt.push(t.elapsed().as_nanos() as u64);
        }
        m.insert("net.echo_rtt_us_64b", p50_us(&mut rtt));

        let (total, window) = (512usize, 8usize);
        let t = Instant::now();
        let mut sent = 0;
        for got in 0..total {
            while sent < total && sent < got + window {
                conn.send(block.to_vec()).map_err(|e| format!("echo send: {e}"))?;
                sent += 1;
            }
            rx.recv_timeout(wait).map_err(|_| "echo stream timed out")?;
        }
        m.insert("net.echo_mb_s_64k", mb_per_s(total * block.len(), t.elapsed()));
        Ok(())
    })();
    stop.store(true, Ordering::SeqCst);
    accept.stop();
    server.join().map_err(|_| "echo server thread panicked")?;
    result
}

fn store_probe(dir: &Path, block: &[u8], m: &mut Metrics) -> Result<(), String> {
    let io = |what: &str, e: std::io::Error| format!("store probe {what}: {e}");
    let mut engine = FileEngine::open(dir, FsyncPolicy::Group).map_err(|e| io("open", e))?;
    let (mut put, mut sync, mut read) = (Vec::new(), Vec::new(), Vec::new());
    let n = 128u64;
    for stripe in 0..n {
        let t = Instant::now();
        engine.write(1, stripe, 0, block).map_err(|e| io("write", e))?;
        put.push(t.elapsed().as_nanos() as u64);
        if stripe % 8 == 7 {
            let t = Instant::now();
            engine.sync().map_err(|e| io("sync", e))?;
            sync.push(t.elapsed().as_nanos() as u64);
        }
    }
    let mut out = vec![0u8; block.len()];
    for stripe in 0..n {
        let t = Instant::now();
        let got = engine.read(1, stripe, 0, &mut out).map_err(|e| io("read", e))?;
        read.push(t.elapsed().as_nanos() as u64);
        if got != block.len() || out != block {
            return Err("store probe read back different bytes".into());
        }
    }
    m.insert("store.put_us_64k", p50_us(&mut put));
    m.insert("store.sync_us", p50_us(&mut sync));
    m.insert("store.read_us_64k", p50_us(&mut read));

    // Client + transport without a disk under them.
    let any: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
    let servers: Vec<StoreServer> = (0..2)
        .map(|t| StoreServer::spawn(any, MemEngine::new(), FsyncPolicy::None, t))
        .collect::<Result<_, _>>()
        .map_err(|e| io("spawn mem server", e))?;
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.addr()).collect();
    let mut client =
        StoreClient::tcp(&addrs, STRIPE, 2).map_err(|e| format!("store probe dial: {e}"))?;
    let payload: Vec<u8> = block.iter().cycle().take(1 << 20).copied().collect();
    let files = 32u128;
    let t = Instant::now();
    for f in 0..files {
        client.write(Fid(f + 1), 0, &payload).map_err(|e| format!("store probe write: {e}"))?;
    }
    m.insert("store.client_write_mb_s_mem", mb_per_s(files as usize * payload.len(), t.elapsed()));
    drop(client);
    servers.into_iter().for_each(StoreServer::stop);
    Ok(())
}

/// p50 round trip of a znode create/delete loop on a fresh ensemble, and
/// the log bytes each member kept per mutation (fewer mutations than one
/// checkpoint interval, so the growth is pure log).
fn write_loop(voters: usize, wal_dir: Option<&Path>) -> Result<(f64, f64), String> {
    let ens = Ensemble::start(voters, wal_dir)?;
    let mut session = ens.session(0)?;
    let zk = session.zk();
    let before = wal_dir.map_or(0, util::dir_bytes);
    let n = 300;
    let mut rtt = Vec::with_capacity(2 * n);
    let mut fids = FidGenerator::new(17);
    for phase in 0..2 {
        for i in 0..n {
            let path = format!("/p{i}");
            let req = if phase == 0 {
                create_req(path, file_meta(&mut fids))
            } else {
                ZkRequest::Delete { path, version: None }
            };
            let t = Instant::now();
            let resp = zk.request(req);
            rtt.push(t.elapsed().as_nanos() as u64);
            if let Some(e) = resp.err() {
                return Err(format!("differential write loop: {e:?}"));
            }
        }
    }
    let grown = wal_dir.map_or(0, util::dir_bytes).saturating_sub(before);
    drop(session);
    ens.shutdown();
    Ok((p50_us(&mut rtt), grown as f64 / (2 * n * voters) as f64))
}

fn diff_stage(dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let (three_durable, wal_bytes) = write_loop(VOTERS, Some(&dir.join("diff-3d")))?;
    let (one_durable, _) = write_loop(1, Some(&dir.join("diff-1d")))?;
    let (three_volatile, _) = write_loop(VOTERS, None)?;
    m.insert("zab.single_voter_write_us", one_durable);
    m.insert("zab.quorum_overhead_us", three_durable - one_durable);
    m.insert("wal.sync_overhead_us", three_durable - three_volatile);
    m.insert("wal.dir_bytes_per_mutation", wal_bytes);
    Ok(())
}
