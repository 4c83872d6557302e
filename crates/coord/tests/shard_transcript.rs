//! Golden request transcripts of the sharded client: every request a
//! [`ShardedClient`] sends, per shard and in order, for each routed
//! operation — single-path ops, the two-copy directory delete (with its
//! fallbacks and the ghost purge), the owner-shard listing fallback,
//! `Multi` slicing, rename, the 2PC coordinator, the session-wide fan-outs,
//! the `TxnBusy` → recovery sweep → rerun path and a lost decision race.
//!
//! Each shard is one single-voter [`CoordServer`] stepped in process
//! behind a recording transport, so every run is the same. A row is
//! `shard: request`, grouped under the operation that sent it; transaction
//! ids (random per session) are masked as `T0`, `T1`, … in order of first
//! appearance within the operation. The expected text
//! (`shard_transcript.txt`) was dumped from the sharded client before its
//! request logic moved into a step machine, and kept when that machine
//! became `sharded::route`, so a change to how that logic is *written*
//! cannot change what it *asks for*.
//!
//! On a mismatch the whole transcript is written to
//! `target/tmp/shard_transcript.txt` for diffing against the golden file.
//!
//! A second test runs [`route`] through a recovery sweep and a ghost purge
//! that grow with their input, and prints the time spent in the protocol
//! outside its requests (run it with `--release -- --nocapture`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_coord::runtime::ClientEvent;
use dufs_coord::session::ready;
use dufs_coord::shard::{ShardConfig, DEFAULT_VNODES};
use dufs_coord::sharded::{route, ShardIo, TxnIds};
use dufs_coord::{
    ClientTransport, CoordServer, CoordService, ServerIn, ServerOut, ShardedClient, Watch,
    ZkClient, ZkRequest, ZkResponse, SHARD_CONFIG_PATH,
};
use dufs_zab::{EnsembleConfig, PeerId};
use dufs_zkstore::{CreateMode, MultiOp, ZkError};

const GOLDEN: &str = include_str!("shard_transcript.txt");
const SHARDS: usize = 2;

/// What every shard's transport writes to: the rows so far, the label of
/// the operation running, and whether the next decision record must lose
/// a race.
#[derive(Default)]
struct Log {
    rows: Vec<(String, usize, String)>,
    op: String,
    race_next_decision: bool,
}

/// One shard: a single-voter server that answers every request within the
/// `handle` call delivering it, recording each request it is sent.
struct Recording {
    shard: usize,
    server: CoordServer,
    clock_ns: u64,
    events: VecDeque<ClientEvent>,
    log: Rc<RefCell<Log>>,
}

impl Recording {
    fn deliver(&mut self, req_id: u64, session: u64, req: ZkRequest) {
        self.clock_ns += 1_000_000;
        let input = ServerIn::Client { client: 1, req_id, session, req };
        for out in self.server.handle(self.clock_ns, input) {
            match out {
                ServerOut::Client { req_id, resp, .. } => {
                    self.events.push_back(ClientEvent::Resp { req_id, resp })
                }
                ServerOut::Watch { note, .. } => self.events.push_back(ClientEvent::Watch(note)),
                ServerOut::Peer { .. } | ServerOut::Timer { .. } => {}
            }
        }
    }
}

impl ClientTransport for Recording {
    fn send(&mut self, req_id: u64, session: u64, req: ZkRequest) -> Result<(), ZkError> {
        let race = {
            let mut log = self.log.borrow_mut();
            let op = log.op.clone();
            log.rows.push((op, self.shard, format!("{req:?}")));
            let decision = matches!(&req, ZkRequest::CreatePath { path, .. }
                if path.starts_with("/__txn/decided/"));
            decision && std::mem::take(&mut log.race_next_decision)
        };
        if let (true, ZkRequest::CreatePath { path, mode, .. }) = (race, &req) {
            // Someone else's sweep records an abort first. Its reply
            // carries a request id the client never used, so it is stale.
            let data = Bytes::from_static(b"A");
            let rival = ZkRequest::CreatePath { path: path.clone(), data, mode: *mode };
            self.deliver(u64::MAX, session, rival);
        }
        self.deliver(req_id, session, req);
        Ok(())
    }

    fn recv(&mut self, _timeout: Duration) -> Option<ClientEvent> {
        self.events.pop_front()
    }
}

/// A sharded session over `SHARDS` in-process shards, each holding the
/// shard-layout config.
fn connect(log: &Rc<RefCell<Log>>) -> ShardedClient<Recording> {
    let config = ShardConfig { epoch: 1, shards: SHARDS as u32, vnodes: DEFAULT_VNODES };
    let clients = (0..SHARDS)
        .map(|shard| {
            let (server, _) = CoordServer::new(PeerId(0), EnsembleConfig::of_size(1));
            let events = VecDeque::new();
            let t = Recording { shard, server, clock_ns: 0, events, log: log.clone() };
            let mut c = ZkClient::establish(t).expect("in-process session");
            let payload = Bytes::from(config.encode());
            c.create(SHARD_CONFIG_PATH, payload, CreateMode::Persistent).expect("shard config");
            c
        })
        .collect();
    ShardedClient::connect(clients).expect("sharded session")
}

/// Replace each transaction id in `line` — decimal after `txn_id: `, 16
/// hex digits after `/__txn/` or `/__txn/decided/` — by `T<k>`, `k` its
/// order of first appearance in `seen`.
fn mask(line: &str, seen: &mut Vec<u64>) -> String {
    let mut out = String::new();
    let mut rest = line;
    while let Some(ch) = rest.chars().next() {
        let id = ["txn_id: ", "/__txn/decided/", "/__txn/"].into_iter().find_map(|prefix| {
            let tail = rest.strip_prefix(prefix)?;
            let (len, radix) = match prefix {
                "txn_id: " => (tail.bytes().take_while(u8::is_ascii_digit).count(), 10),
                _ => (16, 16),
            };
            let id = u64::from_str_radix(tail.get(..len)?, radix).ok()?;
            Some((prefix, id, len))
        });
        let Some((prefix, id, len)) = id else {
            out.push(ch);
            rest = &rest[ch.len_utf8()..];
            continue;
        };
        let k = seen.iter().position(|&s| s == id).unwrap_or_else(|| {
            seen.push(id);
            seen.len() - 1
        });
        write!(out, "{prefix}T{k}").unwrap();
        rest = &rest[prefix.len() + len..];
    }
    out
}

fn render(rows: &[(String, usize, String)]) -> String {
    let mut out = String::new();
    let mut seen = Vec::new();
    let mut current = None;
    for (op, shard, req) in rows {
        if current != Some(op) {
            current = Some(op);
            seen.clear();
            writeln!(out, "== {op}").unwrap();
        }
        writeln!(out, "  {shard}: {}", mask(req, &mut seen)).unwrap();
    }
    out
}

/// The first `pick(i)` that is `Some`, for `i` counting up from 0.
fn find<T>(what: &str, mut pick: impl FnMut(usize) -> Option<T>) -> T {
    (0..10_000).find_map(&mut pick).unwrap_or_else(|| panic!("no {what} found"))
}

fn data(s: &str) -> Bytes {
    Bytes::from(s.to_string().into_bytes())
}

fn create(path: &str, data: Bytes) -> MultiOp {
    MultiOp::Create { path: path.into(), data, mode: CreateMode::Persistent }
}

/// Every scenario, in order; returns the recorded rows.
fn rows() -> Vec<(String, usize, String)> {
    let log = Rc::new(RefCell::new(Log { op: "connect".into(), ..Log::default() }));
    let mut c = connect(&log);
    let ring = c.ring().clone();
    let owner = |p: &str| ring.route_path(p) as usize;
    let kids = |p: &str| ring.route_children(p) as usize;
    let op = |label: &str| log.borrow_mut().op = label.to_string();

    // A leaf on each shard.
    let on = |s: usize| find("leaf", |i| Some(format!("/f{i}/x")).filter(|p| owner(p) == s));
    let (leaf0, leaf1) = (on(0), on(1));

    // The orphaned prepare first, while no decision record directory
    // exists: the sweep's marker listing then holds only the marker.
    op("orphaned prepare of a cross-shard rename");
    c.create(&leaf0, data("payload"), CreateMode::Persistent).unwrap();
    let txn_id = c.mint_txn_id();
    let (src_ops, dst_ops) = (
        vec![
            MultiOp::Check { path: leaf0.clone(), version: Some(0) },
            MultiOp::Delete { path: leaf0.clone(), version: Some(0) },
        ],
        vec![create(&leaf1, data("payload"))],
    );
    c.txn_prepare_on(0, txn_id, src_ops, vec![0, 1]).unwrap();
    c.txn_prepare_on(1, txn_id, dst_ops, vec![0, 1]).unwrap();
    op("write into an abandoned prepare: TxnBusy, sweep, rerun");
    c.set_data(&leaf0, data("overwritten"), None).unwrap();

    op("create on shard 0");
    let a = find("path", |i| Some(format!("/c{i}/a")).filter(|p| owner(p) == 0));
    c.create(&a, data("a"), CreateMode::Persistent).unwrap();
    op("create on shard 1");
    let b = find("path", |i| Some(format!("/c{i}/b")).filter(|p| owner(p) == 1));
    c.create(&b, data("b"), CreateMode::Persistent).unwrap();

    op("read, stat and set one path");
    c.get_data(&a, Watch::None).unwrap();
    c.exists(&b, Watch::None).unwrap();
    c.set_data(&a, data("a2"), Some(0)).unwrap();

    op("delete a leaf whose node and listing share a shard");
    let same = find("leaf", |i| Some(format!("/s{i}/x")).filter(|p| owner(p) == kids(p)));
    c.create(&same, Bytes::new(), CreateMode::Persistent).unwrap();
    c.delete(&same, None).unwrap();
    op("delete a leaf whose listing would be on another shard");
    let split = find("leaf", |i| Some(format!("/t{i}/x")).filter(|p| owner(p) != kids(p)));
    c.create(&split, Bytes::new(), CreateMode::Persistent).unwrap();
    c.delete(&split, None).unwrap();

    // Directories whose node and children live on different shards.
    let split_dir = |tag: &str| {
        find("split directory", |i| Some(format!("/{tag}{i}")).filter(|d| owner(d) != kids(d)))
    };
    op("delete a populated directory");
    let d = split_dir("full");
    c.create(&d, data("dir"), CreateMode::Persistent).unwrap();
    c.create(&format!("{d}/f"), Bytes::new(), CreateMode::Persistent).unwrap();
    assert_eq!(c.delete(&d, None), Err(ZkError::NotEmpty));
    op("delete a directory that only exists as a materialized ancestor");
    let d = split_dir("ghost");
    c.create(&format!("{d}/f"), Bytes::new(), CreateMode::Persistent).unwrap();
    c.delete(&format!("{d}/f"), None).unwrap();
    c.delete(&d, None).unwrap();
    op("delete a directory that only exists on its owner shard");
    let d = split_dir("own");
    c.create(&d, data("dir"), CreateMode::Persistent).unwrap();
    c.delete(&d, None).unwrap();
    op("delete a directory whose owner copy holds ghost chains");
    // `dir/gJ`'s children live on `dir`'s owner shard, so creating one
    // materializes `dir/gJ` under the owner copy of `dir`; deleting it
    // again leaves that ghost behind.
    let (dir, ghost) = find("directory with a ghost-chain child", |i| {
        let dir = format!("/chain{i}");
        (owner(&dir) != kids(&dir)).then_some(())?;
        let ghost = (0..100).map(|j| format!("{dir}/g{j}")).find(|g| kids(g) == owner(&dir))?;
        Some((dir, ghost))
    });
    c.create(&dir, data("dir"), CreateMode::Persistent).unwrap();
    c.create(&format!("{dir}/f"), Bytes::new(), CreateMode::Persistent).unwrap();
    c.delete(&format!("{dir}/f"), None).unwrap();
    c.create(&format!("{ghost}/leaf"), Bytes::new(), CreateMode::Persistent).unwrap();
    c.delete(&format!("{ghost}/leaf"), None).unwrap();
    c.delete(&dir, None).unwrap();
    assert_eq!(c.exists(&dir, Watch::None).unwrap(), None);

    op("list a directory nothing was ever created under");
    let d = split_dir("empty");
    c.create(&d, data("dir"), CreateMode::Persistent).unwrap();
    assert_eq!(c.get_children(&d, Watch::None).unwrap().0, Vec::<String>::new());
    let resp = CoordService::request(&mut c, ZkRequest::GetChildrenData { path: d.clone() });
    assert_eq!(resp, ZkResponse::ChildrenData { entries: Vec::new() });
    c.warm_children(&d).unwrap();
    op("list a directory that does not exist");
    assert_eq!(c.get_children("/nowhere", Watch::None), Err(ZkError::NoNode));

    op("list a missing directory whose node and listing share a shard");
    let d = find("directory", |i| Some(format!("/gone{i}")).filter(|d| owner(d) == kids(d)));
    assert_eq!(c.get_children(&d, Watch::None), Err(ZkError::NoNode));

    op("multi on one shard");
    let (m1, m2) = (format!("{a}1"), format!("{a}2"));
    c.multi(vec![create(&m1, data("1")), create(&m2, data("2"))]).unwrap();
    op("multi across shards");
    let (n0, n1) = (on(0).replace("/x", "/m"), on(1).replace("/x", "/m"));
    c.multi(vec![create(&n1, data("1")), create(&n0, data("0"))]).unwrap();
    op("multi across shards that fails to prepare");
    let fresh = format!("{n0}-fresh");
    let err = c.multi(vec![create(&fresh, Bytes::new()), create(&n1, Bytes::new())]);
    assert_eq!(err, Err(ZkError::NodeExists));

    op("rename within a shard");
    c.rename(&m1, &format!("{m1}-renamed")).unwrap();
    op("rename across shards");
    c.rename(&n0, &n1.replace("/m", "/renamed")).unwrap();

    op("multi across shards that loses its decision race");
    log.borrow_mut().race_next_decision = true;
    let (r0, r1) = (n0.replace("/m", "/raced"), n1.replace("/m", "/raced"));
    c.multi(vec![create(&r0, Bytes::new()), create(&r1, Bytes::new())]).unwrap();
    assert!(
        c.exists(&r0, Watch::None).unwrap().is_some()
            && c.exists(&r1, Watch::None).unwrap().is_some()
    );

    op("recovery sweep with nothing to resolve");
    assert_eq!(c.recover_txns().unwrap(), 0);

    op("sync and ping every shard");
    let sync = CoordService::request(&mut c, ZkRequest::Sync);
    assert!(matches!(sync, ZkResponse::Synced { .. }), "{sync:?}");
    let ping = CoordService::request(&mut c, ZkRequest::Ping);
    assert!(matches!(ping, ZkResponse::Pong { .. }), "{ping:?}");

    op("watches");
    c.watch(&a, dufs_coord::WatchKind::Data).unwrap();
    c.watch(a.rsplit_once('/').unwrap().0, dufs_coord::WatchKind::Children).unwrap();

    op("close");
    c.close().unwrap();
    let rows = std::mem::take(&mut log.borrow_mut().rows);
    rows
}

#[test]
fn every_sharded_op_sends_its_golden_requests() {
    let actual = render(&rows());
    if actual != GOLDEN {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("shard_transcript.txt");
        std::fs::write(&dump, &actual).unwrap();
        eprintln!("actual transcript written to {}", dump.display());
    }
    let split =
        |t: &str| -> Vec<String> { t.split("== ").skip(1).map(str::to_string).collect::<Vec<_>>() };
    let (want, got) = (split(GOLDEN), split(&actual));
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(g, w, "operation `{}`", w.lines().next().unwrap_or(""));
    }
    assert_eq!(got.len(), want.len(), "a different number of operations");
}

/// `c`'s shard sessions, counting the requests sent and the time spent in
/// them, and answering the first with `first` instead, if given.
struct Timed<'a> {
    c: &'a mut ShardedClient<Recording>,
    first: Option<ZkResponse>,
    sent: usize,
    in_io: Duration,
}

impl ShardIo for Timed<'_> {
    async fn call(&mut self, shard: usize, req: ZkRequest) -> ZkResponse {
        self.sent += 1;
        let t = Instant::now();
        let reply = self.first.take().unwrap_or_else(|| self.c.shard_client(shard).request(req));
        self.in_io += t.elapsed();
        reply
    }
}

/// Route `req` over `c`'s shard sessions to a successful end, answering its
/// first request with `first` instead, if given. Returns the number of
/// requests and the time spent in the protocol outside them.
fn drive(
    c: &mut ShardedClient<Recording>,
    req: ZkRequest,
    first: Option<ZkResponse>,
) -> (usize, Duration) {
    let ring = c.ring().clone();
    let mut io = Timed { c, first, sent: 0, in_io: Duration::ZERO };
    let t = Instant::now();
    let reply = ready(route(req, &ring, &TxnIds::new(1), &mut io));
    let protocol = t.elapsed() - io.in_io;
    assert_eq!(reply.err(), None, "{reply:?}");
    (io.sent, protocol)
}

/// The protocol runs once, request after request, so its time grows with
/// the requests it sends. A sweep over `n` orphaned prepares sends 6 per transaction (its
/// marker read on each shard, the abort record, two aborts, the record
/// delete) plus 4; a purge of `n` ghosts 2 per ghost plus 10.
#[test]
fn sweeps_and_purges_send_each_request_once() {
    let n = 50;
    let log = Rc::new(RefCell::new(Log::default()));
    let mut c = connect(&log);
    let ring = c.ring().clone();
    let owner = |p: &str| ring.route_path(p) as usize;
    let kids = |p: &str| ring.route_children(p) as usize;

    c.create("/base", Bytes::new(), CreateMode::Persistent).unwrap();
    for i in 0..n {
        let txn_id = c.mint_txn_id();
        for s in 0..SHARDS {
            let leaf = find("leaf", |j| Some(format!("/o{i}-{j}/x")).filter(|p| owner(p) == s));
            c.txn_prepare_on(s, txn_id, vec![create(&leaf, Bytes::new())], vec![0, 1]).unwrap();
        }
    }
    // A write into a fence: `TxnBusy`, the sweep, the rerun.
    let write = ZkRequest::SetData { path: "/base".into(), data: Bytes::new(), version: None };
    let busy = Some(ZkResponse::Error(ZkError::TxnBusy));
    let (sent, protocol) = drive(&mut c, write, busy);
    assert_eq!(sent, 6 * n + 4);
    println!("sweep over {n} orphans: {sent} requests, {protocol:?} in the protocol");

    let dir = find("split directory", |i| Some(format!("/p{i}")).filter(|d| owner(d) != kids(d)));
    c.create(&dir, Bytes::new(), CreateMode::Persistent).unwrap();
    c.create(&format!("{dir}/f"), Bytes::new(), CreateMode::Persistent).unwrap();
    c.delete(&format!("{dir}/f"), None).unwrap();
    let mut ghosts = (0..).map(|j| format!("{dir}/g{j}")).filter(|g| kids(g) == owner(&dir));
    for ghost in ghosts.by_ref().take(n) {
        c.create(&format!("{ghost}/leaf"), Bytes::new(), CreateMode::Persistent).unwrap();
        c.delete(&format!("{ghost}/leaf"), None).unwrap();
    }
    let delete = ZkRequest::Delete { path: dir.clone(), version: None };
    let (sent, protocol) = drive(&mut c, delete, None);
    assert_eq!(sent, 2 * n + 10);
    assert_eq!(c.exists(&dir, Watch::None).unwrap(), None);
    println!("purge of {n} ghosts: {sent} requests, {protocol:?} in the protocol");
}
