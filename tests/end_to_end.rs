//! End-to-end integration: the full DUFS stack — op planner → live
//! coordination ensemble on loopback sockets → shared in-memory parallel
//! filesystems — exercised the way a deployment would use it.

use std::time::Duration;

use dufs_repro::backendfs::ParallelFs;
use dufs_repro::coord::{ClientOptions, ClusterBuilder, TcpCluster};
use dufs_repro::core::services::LocalBackends;
use dufs_repro::core::vfs::{Dufs, NodeKind};
use dufs_repro::core::DufsError;

/// Cluster tests use real-time election timers; running several 3-server
/// ensembles concurrently on a loaded machine makes watchdogs flap. Tests
/// that start a cluster serialize on this gate.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
fn serial() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn cluster_and_mounts() -> (TcpCluster, Vec<dufs_repro::backendfs::pfs::SharedPfs>) {
    let cluster = ClusterBuilder::new().voters(3).tcp();
    cluster.await_leader(Duration::from_secs(15)).expect("leader");
    let mounts = vec![ParallelFs::lustre().into_shared(), ParallelFs::lustre().into_shared()];
    (cluster, mounts)
}

#[test]
fn posix_lifecycle_over_live_ensemble() {
    let _g = serial();
    let (cluster, mounts) = cluster_and_mounts();
    let mut fs = Dufs::new(
        1,
        cluster.client(ClientOptions::at(0)).unwrap(),
        LocalBackends::from_mounts(mounts.clone()),
    );

    fs.mkdir("/app", 0o755).unwrap();
    fs.mkdir("/app/data", 0o700).unwrap();
    fs.create("/app/data/log.txt", 0o644).unwrap();
    fs.write("/app/data/log.txt", 0, b"line one\n").unwrap();
    fs.write("/app/data/log.txt", 9, b"line two\n").unwrap();

    let attr = fs.stat("/app/data/log.txt").unwrap();
    assert_eq!(attr.kind, NodeKind::File);
    assert_eq!(attr.size, 18);

    assert_eq!(&fs.read("/app/data/log.txt", 9, 9).unwrap()[..], b"line two\n");
    assert_eq!(fs.readdir("/app").unwrap(), vec!["data"]);

    fs.symlink("/app/data/log.txt", "/app/latest").unwrap();
    assert_eq!(fs.readlink("/app/latest").unwrap(), "/app/data/log.txt");

    fs.truncate("/app/data/log.txt", 9).unwrap();
    assert_eq!(fs.stat("/app/data/log.txt").unwrap().size, 9);

    fs.chmod("/app/data/log.txt", 0o400).unwrap();
    assert!(!fs.access("/app/data/log.txt", 2).unwrap());

    fs.unlink("/app/latest").unwrap();
    fs.unlink("/app/data/log.txt").unwrap();
    fs.rmdir("/app/data").unwrap();
    fs.rmdir("/app").unwrap();
    assert_eq!(fs.readdir("/").unwrap(), Vec::<String>::new());
    cluster.shutdown();
}

#[test]
fn two_clients_share_namespace_and_data() {
    let _g = serial();
    let (cluster, mounts) = cluster_and_mounts();
    let mut a = Dufs::new(
        1,
        cluster.client(ClientOptions::at(0)).unwrap(),
        LocalBackends::from_mounts(mounts.clone()),
    );
    let mut b = Dufs::new(
        2,
        cluster.client(ClientOptions::at(1)).unwrap(),
        LocalBackends::from_mounts(mounts.clone()),
    );

    a.mkdir("/shared", 0o755).unwrap();
    a.create("/shared/from-a", 0o644).unwrap();
    a.write("/shared/from-a", 0, b"written by a").unwrap();

    // Client b reads a's file through its own mounts after a sync.
    b.coord_mut().sync().unwrap();
    assert_eq!(&b.read("/shared/from-a", 0, 64).unwrap()[..], b"written by a");

    // And b's own file is visible to a.
    b.create("/shared/from-b", 0o644).unwrap();
    a.coord_mut().sync().unwrap();
    let names = a.readdir("/shared").unwrap();
    assert_eq!(names, vec!["from-a", "from-b"]);
    cluster.shutdown();
}

#[test]
fn rename_across_clients_is_atomic() {
    let _g = serial();
    let (cluster, mounts) = cluster_and_mounts();
    let mut a = Dufs::new(
        1,
        cluster.client(ClientOptions::at(0)).unwrap(),
        LocalBackends::from_mounts(mounts.clone()),
    );
    let mut b = Dufs::new(
        2,
        cluster.client(ClientOptions::at(2)).unwrap(),
        LocalBackends::from_mounts(mounts.clone()),
    );

    a.create("/doc", 0o644).unwrap();
    a.write("/doc", 0, b"contents").unwrap();
    a.rename("/doc", "/doc-final").unwrap();

    b.coord_mut().sync().unwrap();
    assert_eq!(b.stat("/doc").unwrap_err(), DufsError::NoEnt);
    assert_eq!(&b.read("/doc-final", 0, 64).unwrap()[..], b"contents");
    cluster.shutdown();
}

#[test]
fn directory_tree_rename_via_live_ensemble() {
    let _g = serial();
    let (cluster, mounts) = cluster_and_mounts();
    let mut fs = Dufs::new(
        1,
        cluster.client(ClientOptions::at(0)).unwrap(),
        LocalBackends::from_mounts(mounts),
    );

    fs.mkdir("/proj", 0o755).unwrap();
    fs.mkdir("/proj/src", 0o755).unwrap();
    fs.create("/proj/src/main.rs", 0o644).unwrap();
    fs.write("/proj/src/main.rs", 0, b"fn main() {}").unwrap();
    fs.rename("/proj", "/project").unwrap();

    assert_eq!(fs.readdir("/project/src").unwrap(), vec!["main.rs"]);
    assert_eq!(&fs.read("/project/src/main.rs", 0, 64).unwrap()[..], b"fn main() {}");
    assert_eq!(fs.stat("/proj").unwrap_err(), DufsError::NoEnt);
    cluster.shutdown();
}

#[test]
fn files_distribute_across_both_mounts() {
    let _g = serial();
    let (cluster, mounts) = cluster_and_mounts();
    let mut fs = Dufs::new(
        7,
        cluster.client(ClientOptions::at(0)).unwrap(),
        LocalBackends::from_mounts(mounts.clone()),
    );
    fs.mkdir("/bulk", 0o755).unwrap();
    for i in 0..40 {
        fs.create(&format!("/bulk/f{i}"), 0o644).unwrap();
    }
    // MD5 load balancing should put files on both mounts.
    let counts: Vec<usize> = mounts.iter().map(|m| m.lock().entry_count()).collect();
    assert!(counts.iter().all(|&c| c > 0), "both mounts used: {counts:?}");
    cluster.shutdown();
}

#[test]
fn dufs_survives_follower_crash_mid_workload() {
    let _g = serial();
    let (cluster, mounts) = cluster_and_mounts();
    let leader = cluster.leader_index().unwrap();
    let victim = (0..3).find(|&i| i != leader).unwrap();
    let client_server = (0..3).find(|&i| i != leader && i != victim).unwrap();

    let mut fs = Dufs::new(
        1,
        cluster.client(ClientOptions::at(client_server)).unwrap(),
        LocalBackends::from_mounts(mounts),
    );
    fs.mkdir("/work", 0o755).unwrap();
    for i in 0..10 {
        fs.create(&format!("/work/pre{i}"), 0o644).unwrap();
    }
    cluster.crash(victim);
    for i in 0..10 {
        fs.create(&format!("/work/during{i}"), 0o644).unwrap();
    }
    cluster.restart(victim);
    for i in 0..10 {
        fs.create(&format!("/work/after{i}"), 0o644).unwrap();
    }
    assert_eq!(fs.readdir("/work").unwrap().len(), 30);
    cluster.shutdown();
}
