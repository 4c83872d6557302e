//! Out-of-process crash recovery: real `coord_server` processes, real
//! `SIGKILL`, no in-process shortcuts. The harness
//!
//! 1. computes a control digest by running an idempotent workload against
//!    an uncrashed in-process ensemble,
//! 2. spawns three `coord_server` children (durable, loopback),
//! 3. kills one member with `SIGKILL` mid-workload and keeps writing
//!    through the survivors,
//! 4. kills the *entire* ensemble, respawns all three over the same WAL
//!    directories — on fresh ports, because the durable identity is the
//!    directory, not the address — and
//! 5. asserts that acknowledged data survived and that, after an
//!    idempotent repair pass, the recovered namespace digest equals the
//!    uncrashed control.
//!
//! Every workload op treats `NodeExists`/`NoNode` as success, so
//! at-least-once retries through kills cannot diverge the final tree.

#![cfg(unix)]

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_coord::shard::{ShardConfig, DEFAULT_VNODES, SHARD_CONFIG_PATH};
use dufs_coord::sharded::{txn_decision_path, ShardedClient};
use dufs_coord::tcp::{remote_status, TcpTransport, TcpZkClient};
use dufs_coord::{ClientOptions, ClusterBuilder, CoordService, Watch, ZkClient};
use dufs_zkstore::{CreateMode, MultiOp, ZkError};

const DIRS: usize = 3;
const FILES: usize = 4;
const CANARY: &[u8] = b"acked-before-any-kill";

// ------------------------------------------------------------ process tools

/// `n` distinct free loopback ports (held simultaneously while probing so
/// they cannot collide with each other).
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let held: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("probe port")).collect();
    held.iter().map(|l| l.local_addr().unwrap()).collect()
}

fn spawn_member(me: usize, addrs: &[SocketAddr], wal_root: &Path) -> Child {
    let peers = addrs.iter().map(ToString::to_string).collect::<Vec<_>>().join(",");
    Command::new(env!("CARGO_BIN_EXE_coord_server"))
        .arg("--me")
        .arg(me.to_string())
        .arg("--peers")
        .arg(peers)
        .arg("--wal-dir")
        .arg(wal_root.join(format!("server-{me}")))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coord_server")
}

/// SIGKILL — no shutdown hooks, no flushes, the real failure mode.
fn kill9(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

fn await_leader(addrs: &[SocketAddr], timeout: Duration) -> usize {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        for (i, a) in addrs.iter().enumerate() {
            if let Some(s) = remote_status(*a, Duration::from_secs(2)) {
                if s.is_leader {
                    return i;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("no leader within {timeout:?} among {addrs:?}");
}

fn session(addrs: &[SocketAddr]) -> TcpZkClient {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match ZkClient::establish(TcpTransport::new(addrs.to_vec())) {
            Ok(c) => return c,
            Err(_) => {
                assert!(Instant::now() < deadline, "could not open a session");
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    }
}

// ------------------------------------------------------- idempotent workload

/// Retry `f` through transport-level failures until the op lands (or a
/// real application error surfaces). This is the harness's outer retry
/// loop — [`ZkClient::request`]'s 8 internal attempts are not enough to
/// bridge a whole-ensemble respawn.
fn until_ok(mut f: impl FnMut() -> Result<(), ZkError>) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match f() {
            Ok(()) => return,
            Err(ZkError::ConnectionLoss | ZkError::Net | ZkError::SessionExpired) => {
                assert!(Instant::now() < deadline, "op never landed");
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => panic!("workload op failed: {e:?}"),
        }
    }
}

fn idem_create(c: &mut TcpZkClient, path: &str, data: &[u8]) {
    let data = Bytes::copy_from_slice(data);
    until_ok(|| match c.create(path, data.clone(), CreateMode::Persistent) {
        Ok(_) | Err(ZkError::NodeExists) => Ok(()),
        Err(e) => Err(e),
    });
}

fn idem_set(c: &mut TcpZkClient, path: &str, data: &[u8]) {
    let data = Bytes::copy_from_slice(data);
    until_ok(|| match c.set_data(path, data.clone(), None) {
        Ok(_) => Ok(()),
        Err(e) => Err(e),
    });
}

fn idem_delete(c: &mut TcpZkClient, path: &str) {
    until_ok(|| match c.delete(path, None) {
        Ok(()) | Err(ZkError::NoNode) => Ok(()),
        Err(e) => Err(e),
    });
}

/// First half: directory tree + canary. Runs before any kill.
fn phase1(c: &mut TcpZkClient) {
    for d in 0..DIRS {
        idem_create(c, &format!("/d{d}"), b"");
    }
    idem_create(c, "/canary", CANARY);
}

/// Second half: file churn. Runs while members are being killed, and again
/// as the post-recovery repair pass.
fn phase2(c: &mut TcpZkClient) {
    for d in 0..DIRS {
        for f in 0..FILES {
            idem_create(c, &format!("/d{d}/f{f}"), format!("content-{d}-{f}").as_bytes());
        }
    }
    for d in 0..DIRS {
        idem_set(c, &format!("/d{d}/f0"), format!("v2-{d}").as_bytes());
        idem_delete(c, &format!("/d{d}/f1"));
    }
}

/// Wait until every replica reports the same internal tree digest — the
/// replication-consistency check *within* one ensemble.
fn await_convergence(c: &mut TcpZkClient, addrs: &[SocketAddr]) {
    until_ok(|| c.sync().map(|_| ()));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s: Vec<_> =
            addrs.iter().filter_map(|a| remote_status(*a, Duration::from_secs(2))).collect();
        if s.len() == addrs.len() && s.iter().all(|x| x.digest == s[0].digest) {
            return;
        }
        assert!(Instant::now() < deadline, "replicas never converged: {s:?}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Client-side digest over (path, data) of the whole namespace, read through
/// an ordinary session. Unlike the server's internal tree digest this
/// ignores stat counters (`version`, `cversion`), which is the point: under
/// at-least-once delivery a retried `set_data` bumps `version` twice, so
/// counter-inclusive digests are not comparable across *separate runs* —
/// only the acked contents are.
fn content_digest(c: &mut TcpZkClient) -> u64 {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    let mut acc: u64 = 0;
    let mut count: u64 = 0;
    let mut stack = vec![String::from("/")];
    while let Some(path) = stack.pop() {
        let mut got = None;
        until_ok(|| {
            got = Some(c.get_data(&path, Watch::None)?);
            Ok(())
        });
        let (data, _) = got.unwrap();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        eat(&mut h, path.as_bytes());
        eat(&mut h, &data);
        acc = acc.wrapping_add(h);
        count += 1;

        let mut kids = None;
        until_ok(|| {
            kids = Some(c.get_children(&path, Watch::None)?.0);
            Ok(())
        });
        for k in kids.unwrap() {
            stack.push(if path == "/" { format!("/{k}") } else { format!("{path}/{k}") });
        }
    }
    acc.wrapping_add(count)
}

// ------------------------------------------------------------------ the test

#[test]
fn kill9_one_member_then_whole_ensemble_and_recover() {
    // 1. Uncrashed control, same ops, in-process.
    let control = ClusterBuilder::new().voters(3).tcp();
    control.await_leader(Duration::from_secs(20)).expect("control leader");
    let control_digest = {
        let mut c = control.client(ClientOptions::at(0).with_failover()).unwrap();
        phase1(&mut c);
        phase2(&mut c);
        await_convergence(&mut c, control.addrs());
        content_digest(&mut c)
    };
    control.shutdown();

    // 2. The real thing: three OS processes, durable.
    let wal_root = std::env::temp_dir().join(format!("dufs-kill9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);
    let addrs = free_addrs(3);
    let mut procs: Vec<Child> = (0..3).map(|i| spawn_member(i, &addrs, &wal_root)).collect();
    await_leader(&addrs, Duration::from_secs(60));

    let mut c = session(&addrs);
    phase1(&mut c);
    until_ok(|| c.sync().map(|_| ())); // canary is acked + synced from here on

    // 3. SIGKILL one member mid-workload; the survivors must keep serving.
    kill9(&mut procs[0]);
    phase2(&mut c);
    let survivor = remote_status(addrs[1], Duration::from_secs(5))
        .or_else(|| remote_status(addrs[2], Duration::from_secs(5)))
        .expect("survivors answer");
    assert!(survivor.alive);

    // 4. SIGKILL the whole ensemble. Nothing is left running.
    for p in procs.iter_mut() {
        kill9(p);
    }
    for a in &addrs {
        assert!(
            remote_status(*a, Duration::from_millis(500)).is_none(),
            "a killed server answered a probe"
        );
    }

    // 5. Respawn ALL members over the same WAL directories, fresh ports.
    let addrs2 = free_addrs(3);
    let mut procs: Vec<Child> = (0..3).map(|i| spawn_member(i, &addrs2, &wal_root)).collect();
    await_leader(&addrs2, Duration::from_secs(60));

    let mut c2 = session(&addrs2);
    // Acked-before-kill data must have survived bit-exactly.
    let (data, _) = loop {
        match c2.get_data("/canary", Watch::None) {
            Ok(v) => break v,
            Err(ZkError::ConnectionLoss | ZkError::Net) => {
                std::thread::sleep(Duration::from_millis(100))
            }
            Err(e) => panic!("canary lost after kill -9 recovery: {e:?}"),
        }
    };
    assert_eq!(&data[..], CANARY, "canary data corrupted by recovery");

    // Repair pass (covers ops in flight at kill time). All replicas must
    // re-converge on one internal digest, and the namespace *contents* must
    // equal the uncrashed control's.
    phase1(&mut c2);
    phase2(&mut c2);
    await_convergence(&mut c2, &addrs2);
    let recovered = content_digest(&mut c2);
    assert_eq!(recovered, control_digest, "recovered namespace differs from the uncrashed control");

    for p in procs.iter_mut() {
        kill9(p);
    }
    let _ = std::fs::remove_dir_all(&wal_root);
}

// ----------------------------------------------- sharded 2PC kill -9 recovery

/// Open one session per single-member shard and assemble a routed client.
/// Writes the shard config first if asked (bootstrap vs reconnect).
fn sharded_session(shard_addrs: &[SocketAddr], bootstrap: bool) -> ShardedClient<TcpTransport> {
    let config = ShardConfig { epoch: 1, shards: shard_addrs.len() as u32, vnodes: DEFAULT_VNODES };
    let mut sessions = Vec::new();
    for a in shard_addrs {
        let mut s = session(&[*a]);
        if bootstrap {
            idem_create(&mut s, SHARD_CONFIG_PATH, &config.encode());
        }
        sessions.push(s);
    }
    ShardedClient::connect(sessions).expect("assemble sharded client")
}

fn sharded_seed(c: &mut ShardedClient<TcpTransport>, src: &str) {
    for d in 0..DIRS {
        for f in 0..FILES {
            let p = format!("/s{d}/f{f}");
            until_ok(|| {
                match c.create(&p, Bytes::copy_from_slice(p.as_bytes()), CreateMode::Persistent) {
                    Ok(_) | Err(ZkError::NodeExists) => Ok(()),
                    Err(e) => Err(e),
                }
            });
        }
    }
    until_ok(|| {
        match c.create(src, Bytes::from_static(b"victim-payload"), CreateMode::Persistent) {
            Ok(_) | Err(ZkError::NodeExists) => Ok(()),
            Err(e) => Err(e),
        }
    });
}

/// A `(src, dst)` pair on different shards — pure ring arithmetic, so the
/// control and crash runs agree on it.
fn sharded_pair(c: &ShardedClient<TcpTransport>) -> (String, String) {
    let src = "/mv-src/victim".to_string();
    for i in 0..10_000 {
        let dst = format!("/mv-dst{i}/moved");
        if c.route(&dst) != c.route(&src) {
            return (src, dst);
        }
    }
    panic!("no cross-shard pair");
}

/// `kill -9` one shard's (only, hence leader) member after the prepares
/// and the coordinator's durable `C` record but before any commit lands;
/// respawn it over the same WAL on a fresh port; let a brand-new session's
/// recovery sweep finish the commit; check the namespace digest against an
/// uncrashed in-process control.
#[test]
fn sharded_rename_commit_survives_kill9_of_a_shard_leader() {
    // 1. Uncrashed control: same workload, commit goes through undisturbed.
    let control = ClusterBuilder::new().voters(1).shards(2).sharded_tcp();
    assert!(control.await_leaders(Duration::from_secs(30)), "control leaders");
    let control_digest = {
        let mut c = control.client(ClientOptions::at(0).with_failover()).unwrap();
        let (src, dst) = sharded_pair(&c);
        sharded_seed(&mut c, &src);
        c.rename(&src, &dst).unwrap();
        c.user_digest().unwrap()
    };
    control.shutdown();

    // 2. Two single-member shard ensembles as real OS processes.
    let wal_root = std::env::temp_dir().join(format!("dufs-2pc-kill9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);
    let addrs = free_addrs(2);
    let mut procs: Vec<Child> = (0..2)
        .map(|k| spawn_member(0, &addrs[k..=k], &wal_root.join(format!("shard-{k}"))))
        .collect();
    for a in &addrs {
        await_leader(&[*a], Duration::from_secs(60));
    }

    let mut c = sharded_session(&addrs, true);
    let (src, dst) = sharded_pair(&c);
    sharded_seed(&mut c, &src);

    // 3. Prepare both slices of the rename, then SIGKILL the destination
    //    shard's member with the transaction undecided.
    let (data, stat) = c.get_data(&src, Watch::None).unwrap();
    let slices = vec![
        (
            c.route(&src),
            vec![
                MultiOp::Check { path: src.clone(), version: Some(stat.version) },
                MultiOp::Delete { path: src.clone(), version: Some(stat.version) },
            ],
        ),
        (
            c.route(&dst),
            vec![MultiOp::Create { path: dst.clone(), data, mode: CreateMode::Persistent }],
        ),
    ];
    let mut participants: Vec<u32> = slices.iter().map(|&(s, _)| s as u32).collect();
    participants.sort_unstable();
    let txn_id = c.mint_txn_id();
    for (s, ops) in &slices {
        c.txn_prepare_on(*s, txn_id, ops.clone(), participants.clone()).unwrap();
    }
    // The coordinator durably records its commit verdict — this is the
    // point of no return — and then "dies" along with the shard below.
    c.shard_client(participants[0] as usize)
        .create_path(&txn_decision_path(txn_id), Bytes::from_static(b"C"), CreateMode::Persistent)
        .unwrap();
    let dst_shard = c.route(&dst);
    kill9(&mut procs[dst_shard]);
    assert!(
        remote_status(addrs[dst_shard], Duration::from_millis(500)).is_none(),
        "killed shard answered a probe"
    );

    // 4. Respawn over the same WAL on a fresh port; the prepared slice and
    //    its fence must have been recovered from the log.
    let fresh = free_addrs(1);
    let mut addrs2 = addrs.clone();
    addrs2[dst_shard] = fresh[0];
    procs[dst_shard] = spawn_member(0, &fresh, &wal_root.join(format!("shard-{dst_shard}")));
    await_leader(&fresh, Duration::from_secs(60));

    // 5. A brand-new session (never party to the prepare) sweeps the
    //    parked markers; the durable `C` record makes it finish the commit.
    let mut c2 = sharded_session(&addrs2, false);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match c2.recover_txns() {
            Ok(n) if n >= 1 => break,
            Ok(_) | Err(ZkError::ConnectionLoss | ZkError::Net | ZkError::SessionExpired) => {
                assert!(Instant::now() < deadline, "recovery sweep never resolved the txn");
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => panic!("recovery sweep failed: {e:?}"),
        }
    }
    assert_eq!(c2.exists(&src, Watch::None).unwrap(), None, "rename source survived the commit");
    assert_eq!(&c2.get_data(&dst, Watch::None).unwrap().0[..], b"victim-payload");

    let recovered = c2.user_digest().unwrap();
    assert_eq!(
        recovered, control_digest,
        "recovered sharded namespace differs from the uncrashed control"
    );

    for p in procs.iter_mut() {
        kill9(p);
    }
    let _ = std::fs::remove_dir_all(&wal_root);
}
