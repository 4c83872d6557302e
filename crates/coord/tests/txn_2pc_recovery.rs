//! Crash consistency of cross-shard two-phase commit with in-process crash
//! injection: a shard that is `kill -9`'d (crash + WAL recovery) **between
//! prepare and decision** must come back with the prepared slice still
//! parked and fenced, and a *fresh* session's `recover_txns` sweep — which
//! was never party to the prepare — must drive the transaction to the same
//! outcome on both shards. The commit case plants the coordinator's durable
//! decision record first (the coordinator died just after recording `C`);
//! the abort case leaves no record, so recovery must presume abort. The
//! recovered namespace is checked against an uncrashed control running the
//! same workload, via the shard-count-independent logical digest.
//!
//! The out-of-process sibling (real processes, real `SIGKILL`) lives in
//! `kill9_recovery.rs`; this file exercises the same protocol states with
//! [`dufs_coord::TcpCluster::crash`], which also lets it cover the abort
//! path cheaply.

use std::time::Duration;

use bytes::Bytes;

use dufs_coord::sharded::{txn_decision_path, ShardedClient, ShardedCluster};
use dufs_coord::{ClientOptions, ClientTransport, ClusterBuilder, CoordService, Watch};
use dufs_zkstore::{CreateMode, MultiOp};

const SHARDS: usize = 2;

fn start(durable: Option<&std::path::Path>) -> ShardedCluster {
    let mut b = ClusterBuilder::new().voters(1).shards(SHARDS);
    if let Some(d) = durable {
        b = b.durable(d);
    }
    b.sharded_tcp()
}

/// A `(src, dst)` leaf pair guaranteed to live on different shards. Pure
/// ring arithmetic, so the control and crash runs pick the same pair.
fn cross_shard_pair<T: ClientTransport>(c: &ShardedClient<T>) -> (String, String) {
    let src = "/src-dir/victim".to_string();
    for i in 0..10_000 {
        let dst = format!("/dst-dir{i}/moved");
        if c.route(&dst) != c.route(&src) {
            return (src, dst);
        }
    }
    panic!("no cross-shard pair");
}

/// Seed a little namespace plus the rename source.
fn seed<T: ClientTransport>(c: &mut ShardedClient<T>, src: &str) {
    for d in 0..3 {
        for f in 0..2 {
            let p = format!("/seed{d}/f{f}");
            c.create(&p, Bytes::from(p.clone().into_bytes()), CreateMode::Persistent).unwrap();
        }
    }
    c.create(src, Bytes::from_static(b"victim-payload"), CreateMode::Persistent).unwrap();
}

/// The per-shard slices of the cross-shard rename `src` → `dst`.
fn rename_slices<T: ClientTransport>(
    c: &mut ShardedClient<T>,
    src: &str,
    dst: &str,
) -> Vec<(usize, Vec<MultiOp>)> {
    let (data, stat) = c.get_data(src, Watch::None).unwrap();
    let src_slice = vec![
        MultiOp::Check { path: src.into(), version: Some(stat.version) },
        MultiOp::Delete { path: src.into(), version: Some(stat.version) },
    ];
    let dst_slice = vec![MultiOp::Create { path: dst.into(), data, mode: CreateMode::Persistent }];
    vec![(c.route(src), src_slice), (c.route(dst), dst_slice)]
}

#[derive(Clone, Copy, PartialEq)]
enum Decision {
    Commit,
    Abort,
}

/// Post-decision probe, run **identically** by the control and the crash
/// run so their op sequences (and thus any `mkdir -p` ancestor residue)
/// match exactly. It doubles as the fence-release check: every write here
/// touches a path the prepared transaction had fenced, so a leaked fence
/// surfaces as `TxnBusy` and a panic.
fn probe<T: ClientTransport>(c: &mut ShardedClient<T>, src: &str, dst: &str, d: Decision) {
    match d {
        Decision::Commit => {
            // dst exists now; src's slot is free again.
            c.set_data(dst, Bytes::from_static(b"victim-payload"), None).unwrap();
            c.create(src, Bytes::new(), CreateMode::Persistent).unwrap();
            c.delete(src, None).unwrap();
        }
        Decision::Abort => {
            // src is untouched; dst was only ever fenced, never created.
            c.set_data(src, Bytes::from_static(b"victim-payload"), None).unwrap();
            c.create(dst, Bytes::new(), CreateMode::Persistent).unwrap();
            c.delete(dst, None).unwrap();
        }
    }
}

/// Uncrashed control: same seed, rename either fully applied (`Commit`) or
/// never attempted (an abort must be indistinguishable from "never
/// happened"), then the same probe. Returns the logical-namespace digest.
fn control_digest(decision: Decision) -> u64 {
    let cluster = start(None);
    let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
    let (src, dst) = cross_shard_pair(&c);
    seed(&mut c, &src);
    if decision == Decision::Commit {
        c.rename(&src, &dst).unwrap();
    }
    probe(&mut c, &src, &dst, decision);
    let d = c.user_digest().unwrap();
    cluster.shutdown();
    d
}

/// Prepare on both shards — planting the durable `C` record first when the
/// decision is `Commit` — then crash the shard holding the *destination*
/// slice (its single voter is its leader), restart it over the same WAL,
/// and let a brand-new session's recovery sweep finish the transaction.
fn crash_mid_2pc(name: &str, decision: Decision) -> u64 {
    let wal = std::env::temp_dir().join(format!("dufs-2pc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    let cluster = start(Some(&wal));

    let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
    let (src, dst) = cross_shard_pair(&c);
    seed(&mut c, &src);
    let slices = rename_slices(&mut c, &src, &dst);
    let mut participants: Vec<u32> = slices.iter().map(|&(s, _)| s as u32).collect();
    participants.sort_unstable();
    let txn_id = c.mint_txn_id();
    for (s, ops) in &slices {
        c.txn_prepare_on(*s, txn_id, ops.clone(), participants.clone()).unwrap();
    }
    if decision == Decision::Commit {
        // The coordinator got exactly as far as recording its verdict; the
        // record rides the decision shard's WAL through the crash. For
        // Abort there is nothing to write — no record *is* the abort.
        c.shard_client(participants[0] as usize)
            .create_path(
                &txn_decision_path(txn_id),
                Bytes::from_static(b"C"),
                CreateMode::Persistent,
            )
            .unwrap();
    }

    // kill -9 the destination shard's leader between prepare and decision
    // delivery.
    let dst_shard = c.route(&dst);
    cluster.shard(dst_shard).crash(0);
    cluster.shard(dst_shard).restart(0);
    assert!(
        cluster.shard(dst_shard).await_leader(Duration::from_secs(30)).is_some(),
        "crashed shard never recovered"
    );
    drop(c); // the coordinator session is dead weight from here on

    // A fresh session — never party to the prepare — sweeps the parked
    // markers and drives the recorded (or presumed) decision everywhere.
    let mut c2 = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
    assert_eq!(c2.recover_txns().unwrap(), 1, "sweep did not resolve the orphaned txn");
    probe(&mut c2, &src, &dst, decision);

    let d = c2.user_digest().unwrap();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&wal);
    d
}

#[test]
fn commit_survives_kill9_of_a_participant_mid_2pc() {
    let recovered = crash_mid_2pc("commit", Decision::Commit);
    assert_eq!(
        recovered,
        control_digest(Decision::Commit),
        "commit after crash+recovery diverged from the uncrashed control"
    );
}

#[test]
fn abort_survives_kill9_of_a_participant_mid_2pc() {
    let recovered = crash_mid_2pc("abort", Decision::Abort);
    assert_eq!(
        recovered,
        control_digest(Decision::Abort),
        "abort after crash+recovery left traces the uncrashed control lacks"
    );
}
