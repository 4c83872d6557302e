//! `Dufs` over live sessions: the session's [`ReadConsistency`] must govern
//! the reads the planner issues through [`CoordService::request`], exactly
//! as it governs the typed `ZkClient::get_data` / `exists` / … methods.
//!
//! Regression: `impl CoordService for ZkClient` used to forward every
//! request to `ZkClient::request`, which never consults the consistency
//! level — so a `Dufs` over a `Linearizable` (or `SyncThenLocal`) follower
//! session silently read `Local`. Barriers are counted as committed zxids
//! on a quiesced ensemble with no other session, in the style of
//! `crates/coord/tests/read_consistency.rs`.

use std::time::Duration;

use dufs_coord::{ClientOptions, ClusterBuilder, ReadConsistency};
use dufs_core::services::LocalBackends;
use dufs_core::vfs::{Dufs, NodeKind};

#[test]
fn linearizable_dufs_reads_pay_one_barrier_each() {
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(Duration::from_secs(20)).expect("leader");
    let follower = (0..3).find(|&i| i != leader).unwrap();
    let session = |consistency| {
        cluster.client(ClientOptions::at(follower).with_consistency(consistency)).unwrap()
    };

    let mut fs = Dufs::new(1, session(ReadConsistency::Linearizable), LocalBackends::lustre(1));
    fs.mkdir("/d", 0o755).unwrap();

    // K × stat = K reads = K `Sync` zxids, nothing else.
    const K: u64 = 5;
    let base = cluster.status(follower).committed;
    for _ in 0..K {
        assert_eq!(fs.stat("/d").unwrap().kind, NodeKind::Dir);
    }
    assert_eq!(
        cluster.status(follower).committed - base,
        K,
        "every Linearizable read through Dufs must be preceded by exactly one barrier"
    );

    // The same reads at `SyncThenLocal` after an acked write owe nothing.
    let mut fs = Dufs::new(2, session(ReadConsistency::SyncThenLocal), LocalBackends::lustre(1));
    fs.mkdir("/e", 0o755).unwrap();
    let base = cluster.status(follower).committed;
    for _ in 0..K {
        assert_eq!(fs.stat("/e").unwrap().kind, NodeKind::Dir);
    }
    assert_eq!(cluster.status(follower).committed, base, "an acked write owes no barrier");
    cluster.shutdown();
}
