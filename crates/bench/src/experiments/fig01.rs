//! Fig 1 — the consistency hazard that motivates the whole design (§III-B):
//! two clients, two metadata servers, no coordination.
//!
//! Client 1 runs `mkdir d1`; client 2 runs `mv d1 d2`. Each client applies
//! its operation to both metadata servers, but the servers see the two
//! clients' requests in different orders. Without a coordination service
//! the replicas diverge (one ends with `d2`, the other with `d1`); with
//! the replicated coordination service every mutation is totally ordered,
//! so all replicas converge — byte-identical digests.

use std::time::Duration;

use bytes::Bytes;

use dufs_coord::{ClientOptions, ClusterBuilder, CoordService};
use dufs_zkstore::{CreateMode, DataTree, MultiOp};

use crate::{Report, Scale};

/// rename = create new name + delete old name, atomically.
fn mv_d1_d2() -> Vec<MultiOp> {
    vec![
        MultiOp::Create { path: "/d2".into(), data: Bytes::new(), mode: CreateMode::Persistent },
        MultiOp::Delete { path: "/d1".into(), version: None },
    ]
}

/// One uncoordinated metadata server applying `order` as it arrives;
/// returns its final root listing.
fn naive_mds(order: &[&str]) -> Vec<String> {
    let mut tree = DataTree::new();
    for (zxid, &op) in (1..).zip(order) {
        match op {
            "mkdir d1" => {
                let _ = tree.create("/d1", Bytes::new(), CreateMode::Persistent, 0, zxid, zxid);
            }
            "mv d1 d2" => {
                let _ = tree.apply_multi(&mv_d1_d2(), 0, zxid, zxid);
            }
            other => unreachable!("{other}"),
        }
    }
    tree.get_children("/").expect("root").0
}

/// Run the experiment (one size: the scale only labels the report).
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new("Fig 1: consistency with 2 clients x 2 metadata servers", scale);

    // --- Naive: two uncoordinated metadata servers, requests interleaved
    // differently (exactly the paper's Figure 1b).
    let mds1 = naive_mds(&["mkdir d1", "mv d1 d2"]);
    let mds2 = naive_mds(&["mv d1 d2", "mkdir d1"]);
    report.note(format!(
        "\nwithout coordination:\n  \
         MDS1 sees [mkdir d1, mv d1 d2]  -> result: {mds1:?}\n  \
         MDS2 sees [mv d1 d2, mkdir d1]  -> result: {mds2:?}"
    ));
    report.gate(
        "uncoordinated replicas diverge",
        mds1 != mds2,
        "paper: 'the resulting states ... are not consistent'",
    );

    // --- With the coordination service: the same two operations from two
    // clients connected to different servers; the leader totally orders
    // them and every replica applies the same sequence.
    let cluster = ClusterBuilder::new().voters(3).tcp();
    cluster.await_leader(Duration::from_secs(10)).expect("leader");
    std::thread::scope(|s| {
        let mut c1 = cluster.client(ClientOptions::at(0)).expect("client 1 session");
        let mut c2 = cluster.client(ClientOptions::at(1)).expect("client 2 session");
        s.spawn(move || {
            let _ = c1.create("/d1", Bytes::new(), CreateMode::Persistent);
        });
        s.spawn(move || {
            // mv d1 d2 — retried until d1 exists or clearly never will.
            for _ in 0..50 {
                if c2.multi(mv_d1_d2()).is_ok() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
    });

    std::thread::sleep(Duration::from_millis(500)); // replication drain
    let digests: Vec<u64> = (0..3).map(|i| cluster.status(i).digest).collect();
    cluster.shutdown();
    report.note(format!(
        "\nwith the coordination service (3 replicas):\n  replica digests: {digests:?}"
    ));
    report.gate(
        "coordinated replicas converge",
        digests.windows(2).all(|w| w[0] == w[1]),
        "totally ordered mutations cannot diverge",
    );
    report
}
