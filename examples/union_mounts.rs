//! The paper's deployment shape, live: several DUFS client instances on
//! different threads, all merging the *same* two back-end mounts and
//! coordinating through a real 3-server replicated ensemble.
//!
//! Demonstrates:
//! * a single shared POSIX namespace across clients,
//! * concurrent metadata mutation with no lost updates,
//! * the Fig 1 rename/mkdir race resolving consistently,
//! * FIDs from different clients never colliding.
//!
//! Run with: `cargo run --example union_mounts`

use std::time::Duration;

use dufs_repro::backendfs::ParallelFs;
use dufs_repro::coord::{ClientOptions, ClusterBuilder};
use dufs_repro::core::services::LocalBackends;
use dufs_repro::core::vfs::Dufs;

fn main() {
    // A real coordination ensemble of 3 servers on loopback sockets.
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(Duration::from_secs(10)).expect("leader elected");
    println!("coordination ensemble up; leader = server {leader}");

    // Two shared back-end mounts — the same physical filesystems seen by
    // every client, like mount points on a cluster node.
    let mounts = vec![ParallelFs::lustre().into_shared(), ParallelFs::lustre().into_shared()];

    // Three DUFS clients on three threads, each with its own session and
    // client id, sharing the namespace.
    let mut handles = Vec::new();
    for client_id in 0..3u64 {
        let zk = cluster.client(ClientOptions::at(client_id as usize % 3)).unwrap();
        let backends = LocalBackends::from_mounts(mounts.clone());
        handles.push(std::thread::spawn(move || {
            let mut fs = Dufs::new(client_id + 1, zk, backends);
            // Everyone races to create the shared root; exactly one wins,
            // the rest see EEXIST — no corruption.
            let _ = fs.mkdir("/shared", 0o755);
            let mut fids = Vec::new();
            for i in 0..20 {
                let path = format!("/shared/c{client_id}-f{i}");
                let fid = fs.create(&path, 0o644).expect("create");
                fs.write(&path, 0, format!("payload from client {client_id}").as_bytes())
                    .expect("write");
                fids.push(fid);
            }
            (fs, fids)
        }));
    }

    let mut all_fids = Vec::new();
    let mut clients = Vec::new();
    for h in handles {
        let (fs, fids) = h.join().expect("client thread");
        all_fids.extend(fids);
        clients.push(fs);
    }

    // FIDs are globally unique without any coordination (client id ‖ counter).
    let mut dedup = all_fids.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), all_fids.len());
    println!("{} files created concurrently; all FIDs unique", all_fids.len());

    // Every client sees the same namespace (sync defeats replication lag).
    let mut listings = Vec::new();
    for fs in &mut clients {
        fs.coord_mut().sync().expect("sync");
        listings.push(fs.readdir("/shared").expect("readdir"));
    }
    assert!(listings.windows(2).all(|w| w[0] == w[1]));
    println!("all clients agree on /shared: {} entries", listings[0].len());

    // The Fig 1 race: one client renames a directory while another creates
    // inside the namespace; the coordination service totally orders them.
    clients[0].mkdir("/shared/d1", 0o755).unwrap();
    let r1 = clients[1].rename("/shared/d1", "/shared/d2");
    let r2 = clients[2].mkdir("/shared/d1", 0o755);
    println!("race outcome: rename={r1:?}, re-mkdir={r2:?}");
    for fs in &mut clients {
        fs.coord_mut().sync().unwrap();
    }
    let views: Vec<Vec<String>> =
        clients.iter_mut().map(|f| f.readdir("/shared").unwrap()).collect();
    assert!(views.windows(2).all(|w| w[0] == w[1]), "views diverged: {views:?}");
    println!("after the race every client still sees one consistent namespace");

    // Data really lives on the shared mounts, spread across both.
    let counts: Vec<usize> = mounts.iter().map(|m| m.lock().entry_count()).collect();
    println!("physical entries per mount (files + shard dirs): {counts:?}");
    assert!(counts.iter().all(|&c| c > 0), "both mounts should hold data");

    cluster.shutdown();
    println!("done.");
}
