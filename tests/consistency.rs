//! The paper's §III consistency argument, tested: concurrent metadata
//! mutation from many DUFS clients must leave one consistent namespace on
//! every replica — including the exact mkdir/rename race of Fig 1.

use std::time::Duration;

use dufs_repro::backendfs::ParallelFs;
use dufs_repro::coord::{ClientOptions, ClusterBuilder, ClusterHandle, ThreadCluster};
use dufs_repro::core::services::LocalBackends;
use dufs_repro::core::vfs::Dufs;

/// Cluster tests use real-time election timers; running several 3-server
/// ensembles concurrently on a loaded machine makes watchdogs flap. Tests
/// that start a cluster serialize on this gate.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
fn serial() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait_converged(cluster: &ThreadCluster) {
    cluster.converged(Duration::from_secs(10)).expect("replicas failed to converge");
}

#[test]
fn fig1_race_resolves_identically_on_all_replicas() {
    let _g = serial();
    // Repeat the race a few times: outcomes may differ run to run (either
    // order is legal) but replicas must always agree with each other.
    for round in 0..3 {
        let cluster = ClusterBuilder::new().voters(3).threads();
        cluster.await_leader(Duration::from_secs(15)).expect("leader");
        let mounts = vec![ParallelFs::lustre().into_shared()];

        let mut c1 = Dufs::new(
            1,
            cluster.client(ClientOptions::at(0)).unwrap(),
            LocalBackends::from_mounts(mounts.clone()),
        );
        let zk2 = cluster.client(ClientOptions::at(1)).unwrap();
        let mounts2 = mounts.clone();

        c1.mkdir("/d1", 0o755).unwrap();
        // Client 2 renames /d1 -> /d2 while client 1 re-creates /d1.
        let h = std::thread::spawn(move || {
            let mut c2 = Dufs::new(2, zk2, LocalBackends::from_mounts(mounts2));
            // A fresh session may land on a replica that has not yet applied
            // the setup mkdir; per ZooKeeper semantics nothing is promised
            // across sessions without a sync, so flush the replica up to the
            // leader's commit point before racing the rename.
            c2.coord_mut().sync().expect("sync");
            c2.rename("/d1", "/d2")
        });
        let mk = c1.mkdir("/d1", 0o755);
        let mv = h.join().expect("thread");

        wait_converged(&cluster);
        // Whatever interleaving happened, every replica holds the same
        // answer, and the union of outcomes is coherent: if the rename won
        // first, the mkdir may have recreated /d1; if the mkdir hit first,
        // it failed with Exists. Either way both ops got a definite result.
        assert!(mk.is_ok() || mv.is_ok(), "round {round}: at least one op succeeds");
        let mut c3 = Dufs::new(
            3,
            cluster.client(ClientOptions::at(2)).unwrap(),
            LocalBackends::from_mounts(mounts),
        );
        c3.coord_mut().sync().unwrap();
        let listing = c3.readdir("/").unwrap();
        assert!(
            listing.contains(&"d1".to_string()) || listing.contains(&"d2".to_string()),
            "round {round}: someone's directory must exist: {listing:?}"
        );
        cluster.shutdown();
    }
}

#[test]
fn concurrent_creates_in_one_directory_lose_nothing() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(3).threads();
    cluster.await_leader(Duration::from_secs(15)).expect("leader");
    let mounts = vec![ParallelFs::lustre().into_shared(), ParallelFs::lustre().into_shared()];

    let mut setup = Dufs::new(
        99,
        cluster.client(ClientOptions::at(0)).unwrap(),
        LocalBackends::from_mounts(mounts.clone()),
    );
    setup.mkdir("/hot", 0o755).unwrap();

    // The workload §VI warns about: many clients creating in one directory.
    let mut handles = Vec::new();
    for c in 0..4u64 {
        let zk = cluster.client(ClientOptions::at((c % 3) as usize)).unwrap();
        let m = mounts.clone();
        handles.push(std::thread::spawn(move || {
            let mut fs = Dufs::new(c + 1, zk, LocalBackends::from_mounts(m));
            let mut created = Vec::new();
            for i in 0..25 {
                let p = format!("/hot/c{c}-{i}");
                fs.create(&p, 0o644).expect("create");
                created.push(p);
            }
            created
        }));
    }
    let mut expected: Vec<String> =
        handles.into_iter().flat_map(|h| h.join().expect("client")).collect();
    expected.sort();

    setup.coord_mut().sync().unwrap();
    let mut names = setup.readdir("/hot").unwrap();
    names = names.into_iter().map(|n| format!("/hot/{n}")).collect();
    names.sort();
    assert_eq!(names, expected, "no create lost or duplicated");
    wait_converged(&cluster);
    cluster.shutdown();
}

#[test]
fn interleaved_mutation_converges_across_replicas() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(3).threads();
    cluster.await_leader(Duration::from_secs(15)).expect("leader");
    let mounts = vec![ParallelFs::lustre().into_shared()];

    let mut handles = Vec::new();
    for c in 0..3u64 {
        let zk = cluster.client(ClientOptions::at(c as usize)).unwrap();
        let m = mounts.clone();
        handles.push(std::thread::spawn(move || {
            let mut fs = Dufs::new(c + 1, zk, LocalBackends::from_mounts(m));
            let root = format!("/w{c}");
            let _ = fs.mkdir(&root, 0o755);
            for i in 0..10 {
                let f = format!("{root}/f{i}");
                fs.create(&f, 0o644).expect("create");
                if i % 3 == 0 {
                    fs.rename(&f, &format!("{root}/renamed{i}")).expect("rename");
                }
                if i % 4 == 0 {
                    fs.unlink(&format!("{root}/renamed0")).ok();
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("client");
    }
    wait_converged(&cluster);
    let statuses: Vec<_> = (0..3).map(|i| cluster.status(i)).collect();
    assert!(statuses.windows(2).all(|w| w[0].digest == w[1].digest));
    assert!(statuses[0].node_count > 0);
    cluster.shutdown();
}
