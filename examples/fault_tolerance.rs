//! Reliability demonstration (paper §IV-I): DUFS clients are stateless;
//! the namespace lives in the replicated coordination service, which
//! tolerates server crashes as long as a majority survives — and, with
//! the write-ahead log, even when *no* majority survives.
//!
//! Kills a follower, then the leader, while a DUFS client keeps mutating
//! the namespace; restarts the dead servers and shows all replicas
//! converge to identical state. Then the part quorum replication alone
//! cannot cover: kills the entire ensemble at once and restarts it from
//! its write-ahead logs, after which every acknowledged file is still
//! there and the service keeps taking writes.
//!
//! Run with: `cargo run --example fault_tolerance`

use std::time::Duration;

use dufs_repro::coord::{ClientOptions, ClusterBuilder};
use dufs_repro::core::services::LocalBackends;
use dufs_repro::core::vfs::Dufs;

fn main() {
    // Durable ensemble: each server fsyncs a write-ahead log under this
    // directory before acknowledging anything.
    let wal_dir = std::env::temp_dir().join(format!("dufs-fault-tolerance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let cluster = ClusterBuilder::new().voters(3).durable(&wal_dir).tcp();
    let leader = cluster.await_leader(Duration::from_secs(10)).expect("leader");
    println!("durable ensemble of 3 up (WAL at {}); leader = server {leader}", wal_dir.display());

    // A DUFS client connected to a server that will survive both crashes.
    let follower = (0..3).find(|&i| i != leader).unwrap();
    let survivor = (0..3).find(|&i| i != leader && i != follower).unwrap();
    let mut fs = Dufs::new(
        7,
        cluster.client(ClientOptions::at(survivor)).unwrap(),
        LocalBackends::lustre(2),
    );
    fs.coord_mut().set_timeout(Duration::from_secs(3));

    fs.mkdir("/jobs", 0o755).unwrap();
    for i in 0..5 {
        fs.create(&format!("/jobs/pre-{i}"), 0o644).unwrap();
    }
    println!("created 5 files with all servers up");

    // Crash a follower: quorum of 2 remains, service continues.
    cluster.crash(follower);
    println!("\ncrashed follower {follower}; writing through the remaining quorum…");
    for i in 0..5 {
        fs.create(&format!("/jobs/one-down-{i}"), 0o644).unwrap();
    }
    println!("5 more files created with one server down");

    // Crash the leader too — now only 1 of 3 alive: no quorum, writes must
    // fail rather than fork the namespace.
    cluster.crash(leader);
    println!("\ncrashed leader {leader}; only 1/3 alive — expecting failure…");
    match fs.create("/jobs/no-quorum", 0o644) {
        Err(e) => println!("write correctly refused without quorum: {e}"),
        Ok(_) => println!("unexpected success (should not happen)"),
    }

    // Restart the follower: quorum is restored, writes flow again.
    cluster.restart(follower);
    println!("\nrestarted server {follower}; waiting for the new regime…");
    let new_leader = {
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(l) = cluster.leader_index() {
                break l;
            }
            assert!(std::time::Instant::now() < deadline, "no failover leader");
            std::thread::sleep(Duration::from_millis(100));
        }
    };
    println!("new leader = server {new_leader}");
    for i in 0..5 {
        fs.create(&format!("/jobs/recovered-{i}"), 0o644).unwrap();
    }
    println!("5 more files created after failover");

    // Restart the old leader as well; every replica must converge.
    cluster.restart(leader);
    std::thread::sleep(Duration::from_secs(2));
    let statuses: Vec<_> = (0..3).map(|i| cluster.status(i)).collect();
    for (i, s) in statuses.iter().enumerate() {
        println!("server {i}: alive={} nodes={} digest={:#018x}", s.alive, s.node_count, s.digest);
    }
    assert!(statuses.windows(2).all(|w| w[0].digest == w[1].digest), "replicas must converge");

    // And the namespace holds everything that was ever acknowledged.
    let names = fs.readdir("/jobs").unwrap();
    assert_eq!(names.len(), 15, "all 15 acknowledged files survive: {names:?}");
    println!("\nall 15 acknowledged files survived two crashes and two restarts");

    // ------------------------------------------------------------------
    // The whole-cluster outage: all three servers die at the same moment.
    // Replication cannot help — no replica keeps the state in memory. The
    // ensemble must come back from its write-ahead logs alone.
    // ------------------------------------------------------------------
    println!("\nkilling ALL three servers at once…");
    for i in 0..3 {
        cluster.crash(i);
    }
    match fs.create("/jobs/during-outage", 0o644) {
        Err(e) => println!("write correctly refused during the outage: {e}"),
        Ok(_) => println!("unexpected success (should not happen)"),
    }

    println!("restarting all three from disk…");
    for i in 0..3 {
        cluster.restart(i);
    }
    let reborn = cluster.await_leader(Duration::from_secs(20)).expect("leader after total outage");
    println!("ensemble recovered from its logs; leader = server {reborn}");

    // Everything ever acknowledged is still there (allow the client's
    // server a moment to resync its replica from the recovered leader)…
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let names = loop {
        let _ = fs.coord_mut().sync();
        match fs.readdir("/jobs") {
            Ok(names) if names.len() == 15 => break names,
            r => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "replica failed to catch up after the outage: {r:?}"
                );
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    };
    assert_eq!(names.len(), 15, "all 15 files survive the total outage: {names:?}");
    // …and the service keeps taking writes.
    for i in 0..5 {
        fs.create(&format!("/jobs/reborn-{i}"), 0o644).unwrap();
    }
    let names = fs.readdir("/jobs").unwrap();
    assert_eq!(names.len(), 20);
    println!("all 15 files survived the whole-cluster crash; 5 more created after recovery");

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
    println!("done.");
}
