//! Runtime parity: a replicated ensemble on sockets must be semantically
//! transparent. The same deterministic metadata workload is driven through
//! a [`TcpCluster`] and through one single-voter [`CoordServer`] stepped in
//! process; every replica of the ensemble must converge to the reference's
//! namespace digest (the tree digest deliberately excludes zxids and
//! timestamps, so the equality is meaningful). The TCP run must
//! additionally show real socket traffic in its [`NetStats`] counters — the
//! assertion that the bytes actually went over the wire. The same workload,
//! written once against [`CoordService`]'s typed calls, also runs over a
//! cache in front of the in-process server and over two in-process shards,
//! and all three must serve one logical namespace.
//!
//! [`TcpCluster`]: dufs_coord::TcpCluster
//! [`NetStats`]: dufs_net::NetStats

use std::collections::VecDeque;
use std::time::Duration;

use bytes::Bytes;

use dufs_cache::CacheBuilder;
use dufs_coord::runtime::ClientEvent;
use dufs_coord::shard::{is_internal_path, ShardConfig, DEFAULT_VNODES};
use dufs_coord::{
    ClientOptions, ClientTransport, ClusterBuilder, CoordServer, CoordService, ReadConsistency,
    ServerIn, ServerOut, ShardedClient, TcpCluster, TcpTransport, Watch, ZkClient, ZkRequest,
    ZkResponse, SHARD_CONFIG_PATH,
};
use dufs_zab::{EnsembleConfig, PeerId};
use dufs_zkstore::{path as zkpath, CreateMode, MultiOp, ZkError};

const DIRS: usize = 3;
const FILES: usize = 6;

/// A deterministic, idempotent namespace churn: mkdir tree, create files,
/// overwrite half, delete a quarter, one atomic rename. Safe to re-run
/// (NodeExists / NoNode are successes), so at-least-once retries through
/// connection loss cannot diverge the final tree.
fn workload<S: CoordService>(c: &mut S) {
    for d in 0..DIRS {
        match c.create(&format!("/d{d}"), Bytes::new(), CreateMode::Persistent) {
            Ok(_) | Err(ZkError::NodeExists) => {}
            Err(e) => panic!("mkdir /d{d}: {e:?}"),
        }
        for f in 0..FILES {
            let path = format!("/d{d}/f{f}");
            match c.create(
                &path,
                Bytes::from(format!("content-{d}-{f}").into_bytes()),
                CreateMode::Persistent,
            ) {
                Ok(_) | Err(ZkError::NodeExists) => {}
                Err(e) => panic!("create {path}: {e:?}"),
            }
        }
    }
    for d in 0..DIRS {
        for f in (0..FILES).step_by(2) {
            let path = format!("/d{d}/f{f}");
            c.set_data(&path, Bytes::from(format!("v2-{d}-{f}").into_bytes()), None)
                .unwrap_or_else(|e| panic!("set {path}: {e:?}"));
        }
    }
    for d in 0..DIRS {
        let path = format!("/d{d}/f1");
        match c.delete(&path, None) {
            Ok(()) | Err(ZkError::NoNode) => {}
            Err(e) => panic!("delete {path}: {e:?}"),
        }
    }
    // Atomic rename (the paper's §III hazard): if it already ran, the
    // delete leg fails with NoNode and the whole multi is a no-op.
    match c.multi(vec![
        MultiOp::Delete { path: "/d0/f3".into(), version: None },
        MultiOp::Create {
            path: "/d0/f3-renamed".into(),
            data: Bytes::from_static(b"moved"),
            mode: CreateMode::Persistent,
        },
    ]) {
        Ok(_) | Err(_) => {} // idempotent either way
    }
    c.sync().expect("sync");
}

/// The digest every member of `cluster` converges on.
fn converged_digest(cluster: &TcpCluster) -> u64 {
    cluster.converged(Duration::from_secs(30)).expect("replicas never converged").digest
}

/// The in-process reference: a single-voter server, which answers every
/// request within the `handle` call that delivers it.
struct InProcess {
    server: CoordServer,
    clock_ns: u64,
    events: VecDeque<ClientEvent>,
}

/// A session on a fresh in-process server.
fn in_process() -> ZkClient<InProcess> {
    let (server, _) = CoordServer::new(PeerId(0), EnsembleConfig::of_size(1));
    let reference = InProcess { server, clock_ns: 0, events: VecDeque::new() };
    ZkClient::establish(reference).expect("in-process session")
}

/// A sharded session over two in-process shards, each holding the
/// shard-layout config.
fn two_in_process_shards() -> ShardedClient<InProcess> {
    let config = ShardConfig { epoch: 1, shards: 2, vnodes: DEFAULT_VNODES };
    let clients = (0..2)
        .map(|_| {
            let mut c = in_process();
            let payload = Bytes::from(config.encode());
            c.create(SHARD_CONFIG_PATH, payload, CreateMode::Persistent).expect("shard config");
            c
        })
        .collect();
    ShardedClient::connect(clients).expect("sharded session")
}

/// The logical namespace `s` serves — every user path with its data,
/// sorted — read through the typed calls alone.
fn namespace<S: CoordService>(s: &mut S) -> Vec<(String, Bytes)> {
    let mut out = Vec::new();
    let mut dirs = vec!["/".to_string()];
    while let Some(dir) = dirs.pop() {
        let (names, _) = s.get_children(&dir, Watch::None).expect("list");
        for path in names.iter().map(|n| zkpath::join(&dir, n)) {
            if !is_internal_path(&path) {
                let (data, _) = s.get_data(&path, Watch::None).expect("read");
                out.push((path.clone(), data));
                dirs.push(path);
            }
        }
    }
    out.sort();
    out
}

impl ClientTransport for InProcess {
    fn send(&mut self, req_id: u64, session: u64, req: ZkRequest) -> Result<(), ZkError> {
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
        Ok(())
    }

    fn recv(&mut self, _timeout: Duration) -> Option<ClientEvent> {
        self.events.pop_front()
    }
}

#[test]
fn one_workload_leaves_one_namespace_over_plain_cached_and_sharded_sessions() {
    let mut plain = in_process();
    workload(&mut plain);
    let want = namespace(&mut plain);
    assert_eq!(want.len(), DIRS + DIRS * (FILES - 1), "{want:?}");

    let mut cached = CacheBuilder::new().session(in_process());
    workload(&mut cached);
    assert_eq!(namespace(&mut cached), want, "the cached session diverged");

    let mut sharded = two_in_process_shards();
    workload(&mut sharded);
    assert_eq!(namespace(&mut sharded), want, "the sharded session diverged");
}

#[test]
fn tcp_ensemble_agrees_with_an_in_process_server_on_the_namespace_digest() {
    let mut c = in_process();
    workload(&mut c);
    let d_reference = c.transport().server.tree().digest();

    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(Duration::from_secs(20)).expect("tcp leader");
    let mut c = cluster.client(ClientOptions::at(leader)).unwrap();
    workload(&mut c);
    let d_tcp = converged_digest(&cluster);

    assert_eq!(d_reference, d_tcp, "the TCP ensemble diverged from the in-process server");

    // The bytes really crossed sockets: every member moved frames, and the
    // client session dialed at least once.
    for i in 0..3 {
        let s = cluster.net_stats(i);
        assert!(s.frames_sent > 0 && s.frames_recv > 0, "server {i} moved no frames: {s:?}");
        assert!(s.bytes_sent > 0 && s.bytes_recv > 0, "server {i} moved no bytes: {s:?}");
        // ... and they moved through the readiness event loop: readiness
        // wakeups were attributed, and every send went out via a writev
        // flush.
        assert!(s.wakeups > 0, "server {i} saw no event-loop wakeups: {s:?}");
        assert!(s.writev_batches > 0, "server {i} never flushed via writev: {s:?}");
        // All post-handshake traffic leaves through flushes (only the
        // dial-out hellos use the blocking path, one frame per peer link).
        assert!(
            s.frames_flushed + 2 >= s.frames_sent,
            "server {i} frames must leave through flushes: {s:?}"
        );
        assert!(s.frames_per_flush() >= 1.0, "server {i} flushed empty batches: {s:?}");
        // Inbound peer links plus whatever sessions are still parked on
        // this member are live registrations; the gauge must not have
        // leaked below zero (u64 underflow would make it enormous).
        assert!(s.conns_registered < 10_000, "server {i} leaked the registration gauge: {s:?}");
    }
    let cs = c.transport().stats();
    assert!(cs.conns_opened >= 1 && cs.frames_sent > 0, "client session unused: {cs:?}");
    assert!(cs.wakeups > 0 && cs.writev_batches > 0, "client bypassed the event loop: {cs:?}");
    assert_eq!(cs.conns_registered, 1, "one live session must be registered: {cs:?}");
    cluster.shutdown();
}

/// The same churn driven through the client-side metadata cache
/// ([`dufs_cache::Cached`]) must leave an identical namespace — the
/// cache may only change *who answers* a read, never what the tree holds —
/// and the wrapper's cache/lease counters must show the machinery actually
/// engaged over real sockets: warm hits, eviction by own mutations and
/// lease renewals. (A skipped barrier needs a write of unknown outcome,
/// which `cached.rs`'s unit tests stage.)
#[test]
fn cached_tcp_sessions_keep_digest_parity_and_report_counters() {
    // Uncached reference run.
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(Duration::from_secs(20)).expect("tcp leader");
    let mut c = cluster.client(ClientOptions::at(leader)).unwrap();
    workload(&mut c);
    let d_plain = converged_digest(&cluster);
    cluster.shutdown();

    // Cached run: same mutations through the invalidating wrappers, plus
    // a read phase that exercises the cache (cold pass populates, second
    // pass must hit).
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(Duration::from_secs(20)).expect("tcp leader");
    let mut r = CacheBuilder::new().session(
        cluster
            .client(ClientOptions::at(leader).with_consistency(ReadConsistency::SyncThenLocal))
            .unwrap(),
    );
    for d in 0..DIRS {
        match r.create(&format!("/d{d}"), Bytes::new(), CreateMode::Persistent) {
            Ok(_) | Err(ZkError::NodeExists) => {}
            Err(e) => panic!("mkdir /d{d}: {e:?}"),
        }
        for f in 0..FILES {
            let path = format!("/d{d}/f{f}");
            match r.create(
                &path,
                Bytes::from(format!("content-{d}-{f}").into_bytes()),
                CreateMode::Persistent,
            ) {
                Ok(_) | Err(ZkError::NodeExists) => {}
                Err(e) => panic!("create {path}: {e:?}"),
            }
        }
    }
    // Reads after acked writes owe no barrier; each is still licensed by
    // the lease once the first grant is adopted.
    for pass in 0..2 {
        for d in 0..DIRS {
            for f in 0..FILES {
                let path = format!("/d{d}/f{f}");
                let (data, _) = r.get_data(&path, Watch::None).unwrap();
                assert_eq!(
                    &data[..],
                    format!("content-{d}-{f}").as_bytes(),
                    "wrong bytes on pass {pass}"
                );
            }
        }
    }
    for d in 0..DIRS {
        for f in (0..FILES).step_by(2) {
            let path = format!("/d{d}/f{f}");
            r.set_data(&path, Bytes::from(format!("v2-{d}-{f}").into_bytes()), None)
                .unwrap_or_else(|e| panic!("set {path}: {e:?}"));
            // The overwrite must have evicted the warm entry: the read-back
            // may not serve the stale pass-one bytes.
            let (data, _) = r.get_data(&path, Watch::None).unwrap();
            assert_eq!(&data[..], format!("v2-{d}-{f}").as_bytes(), "cache hid own write");
        }
    }
    for d in 0..DIRS {
        let path = format!("/d{d}/f1");
        match r.delete(&path, None) {
            Ok(()) | Err(ZkError::NoNode) => {}
            Err(e) => panic!("delete {path}: {e:?}"),
        }
    }
    match r.multi(vec![
        MultiOp::Delete { path: "/d0/f3".into(), version: None },
        MultiOp::Create {
            path: "/d0/f3-renamed".into(),
            data: Bytes::from_static(b"moved"),
            mode: CreateMode::Persistent,
        },
    ]) {
        Ok(_) | Err(_) => {}
    }
    r.sync().expect("sync");
    let d_cached = converged_digest(&cluster);
    assert_eq!(d_plain, d_cached, "cached session diverged the namespace");

    let s = r.stats();
    assert!(s.hits >= (DIRS * FILES) as u64, "second read pass must be warm: {s:?}");
    assert!(s.misses >= (DIRS * FILES) as u64, "cold pass must have missed: {s:?}");
    assert!(
        s.local_invalidations >= (DIRS * FILES / 2) as u64,
        "overwrites must evict warm entries: {s:?}"
    );
    assert!(s.lease_renewals >= 1, "no lease was ever adopted: {s:?}");
    assert_eq!(s.reconnect_invalidations, 0, "healthy run must not reconnect: {s:?}");
    // And the session still moved real bytes underneath the cache.
    let cs = r.inner().transport().stats();
    assert!(cs.conns_opened >= 1 && cs.frames_sent > 0, "cached session unused: {cs:?}");
    cluster.shutdown();
}

/// A server answers one connection's requests in the order they came: K
/// creates sent down a raw transport without waiting come back in order,
/// each with its own id.
#[test]
fn tcp_sessions_preserve_depth_k_pipelining() {
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(Duration::from_secs(20)).expect("leader");
    let mut t = TcpTransport::new(vec![cluster.addrs()[leader]]);
    t.send(1, 0, ZkRequest::Connect).expect("dial");
    let session = match t.recv(Duration::from_secs(5)) {
        Some(ClientEvent::Resp { req_id: 1, resp: ZkResponse::Connected { session } }) => session,
        other => panic!("no session: {other:?}"),
    };
    const K: u64 = 32;
    for id in 2..2 + K {
        let path = format!("/p{id:02}");
        let req = ZkRequest::Create { path, data: Bytes::new(), mode: CreateMode::Persistent };
        t.send(id, session, req).expect("send");
    }
    for want in 2..2 + K {
        match t.recv(Duration::from_secs(5)) {
            Some(ClientEvent::Resp { req_id, resp: ZkResponse::Created { .. } }) => {
                assert_eq!(req_id, want, "reply out of order")
            }
            other => panic!("create {want}: {other:?}"),
        }
    }
    cluster.shutdown();
}

#[test]
fn tcp_durable_cluster_recovers_after_clean_restart() {
    let dir = std::env::temp_dir().join(format!("dufs-tcp-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let first = ClusterBuilder::new().voters(3).durable(&dir).tcp();
    let leader = first.await_leader(Duration::from_secs(20)).expect("leader");
    let mut c = first.client(ClientOptions::at(leader)).unwrap();
    workload(&mut c);
    let before = converged_digest(&first);
    first.shutdown();

    // Same WAL directories, brand-new ports: the durable identity is the
    // directory, not the address.
    let second = ClusterBuilder::new().voters(3).durable(&dir).tcp();
    second.await_leader(Duration::from_secs(20)).expect("leader after restart");
    let mut c = second.client(ClientOptions::at(0)).unwrap();
    c.sync().expect("sync");
    let after = converged_digest(&second);
    assert_eq!(before, after, "restart over the same WAL dirs lost state");
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole's parity claim: every member — leader, followers, and an
/// observer — serves byte-identical data over TCP once a `SyncThenLocal`
/// session has barriered, so spreading reads across the ensemble cannot
/// change what a client observes.
#[test]
fn every_member_serves_identical_data_to_follower_readers() {
    let cluster = ClusterBuilder::new().voters(3).observers(1).tcp();
    let leader = cluster.await_leader(Duration::from_secs(20)).expect("leader");
    let mut w = cluster.client(ClientOptions::at(leader)).unwrap();
    let paths: Vec<String> = (0..16).map(|i| format!("/fan{i:02}")).collect();
    for (i, p) in paths.iter().enumerate() {
        w.create(p, Bytes::from(format!("payload-{i}").into_bytes()), CreateMode::Persistent)
            .unwrap();
    }

    // One session per member, reads pinned there. The sync barrier inside
    // the first read (SyncThenLocal re-barriers on a fresh session's
    // reconnect bookkeeping being clean, so force one with sync()) makes
    // the member current before it answers.
    let mut views: Vec<Vec<(String, Vec<u8>)>> = Vec::new();
    for m in 0..cluster.len() {
        let mut r = cluster
            .client(ClientOptions::at(m).with_consistency(ReadConsistency::SyncThenLocal))
            .unwrap();
        r.sync().expect("barrier");
        let mut view = Vec::new();
        for p in &paths {
            let (data, _) = r
                .get_data(p, Watch::None)
                .unwrap_or_else(|e| panic!("member {m} missing {p} after a sync barrier: {e:?}"));
            view.push((p.clone(), data.to_vec()));
        }
        views.push(view);
    }
    for (m, v) in views.iter().enumerate() {
        assert_eq!(v, &views[0], "member {m} served different data than member 0");
    }
    cluster.shutdown();
}
