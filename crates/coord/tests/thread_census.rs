//! What a [`dufs_coord::tcp::TcpServer`] costs in threads. Alone in its
//! test binary: thread names are read from `/proc/self/task`, so no other
//! cluster may share the process.

use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_coord::{ClientOptions, ClusterBuilder, CoordService};
use dufs_zkstore::CreateMode;

fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

/// Per server, one accept thread and one loop thread are the only
/// long-lived threads it owns: no forwarder between them, no relay thread
/// per peer. (The reactor pool is process-wide; a dial thread lives only
/// until its peer answers.)
#[test]
fn a_three_member_tcp_cluster_owns_six_long_lived_threads() {
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(Duration::from_secs(20)).expect("leader");
    let mut c = cluster.client(ClientOptions::at(leader)).unwrap();
    c.create("/served", Bytes::new(), CreateMode::Persistent).unwrap();

    let count =
        |names: &[String], prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
    let names = thread_names();
    assert_eq!(count(&names, "tcp-coord-"), 3, "{names:?}");
    assert_eq!(count(&names, "net-accept"), 3, "{names:?}");
    assert_eq!(count(&names, "tcp-demux-") + count(&names, "peer-link-"), 0, "{names:?}");
    // Every member is up, so every dial ends.
    let deadline = Instant::now() + Duration::from_secs(10);
    while count(&thread_names(), "tcp-dial-") != 0 {
        assert!(Instant::now() < deadline, "a dial thread outlived a reachable peer");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(c);
    cluster.shutdown();
}
