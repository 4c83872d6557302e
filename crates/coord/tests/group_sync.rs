//! Fsyncs per acknowledged write on a live durable ensemble. A member's
//! loop takes every event that is ready into one pass with one durability
//! point, so concurrent sessions' writes share the leader's fsyncs.

use std::time::Duration;

use bytes::Bytes;
use dufs_coord::{ClientOptions, ClusterBuilder, CoordService};
use dufs_zkstore::CreateMode;

const SESSIONS: usize = 16;
const WRITES: usize = 50;

/// 16 sessions at the leader of a durable 3-voter ensemble, one write in
/// flight each: the leader issues fewer fsyncs than it acknowledges
/// writes. (One fsync per write, or more, is what a member that syncs once
/// per event reads.)
#[test]
fn concurrent_sessions_share_the_leaders_fsyncs() {
    let dir = std::env::temp_dir().join(format!("dufs-group-sync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = ClusterBuilder::new().voters(3).durable(&dir).tcp();
    let leader = cluster.await_leader(Duration::from_secs(20)).expect("leader");
    let mut sessions: Vec<_> = (0..SESSIONS)
        .map(|_| cluster.client(ClientOptions::at(leader)).expect("session"))
        .collect();
    let before = cluster.wal_syncs(leader);
    std::thread::scope(|s| {
        for (k, c) in sessions.iter_mut().enumerate() {
            s.spawn(move || {
                for i in 0..WRITES {
                    let path = format!("/s{k}-{i}");
                    c.create(&path, Bytes::new(), CreateMode::Persistent).expect("acked create");
                }
            });
        }
    });
    let syncs = cluster.wal_syncs(leader) - before;
    let acked = (SESSIONS * WRITES) as f64;
    let per_write = syncs as f64 / acked;
    println!("leader fsyncs per acked write: {per_write:.3} ({syncs} for {acked} writes)");
    assert!(per_write < 1.0, "{syncs} leader fsyncs for {acked} acked writes");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
