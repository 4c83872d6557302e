//! Fig 8 — mdtest operation throughput through DUFS (2 Lustre back-ends)
//! while varying the coordination-ensemble size (1/4/8 servers), against
//! the Basic Lustre baseline; 64/128/256 client processes.
//!
//! Paper behaviour to reproduce: stat-style (read) phases improve markedly
//! with more coordination servers; mutation phases barely move (or dip);
//! "8 ZooKeeper servers is a good compromise" (§V-B).

use dufs_mdtest::scenario::MdtestSystem;
use dufs_mdtest::workload::Phase;

use crate::{fmt_ops, Matrix, Report, Scale};

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let zk = |zk_servers| MdtestSystem::DufsLustre { zk_servers, backends: 2 };
    let systems = vec![
        ("Basic Lustre", MdtestSystem::BasicLustre),
        ("1 Zookeeper", zk(1)),
        ("4 Zookeeper", zk(4)),
        ("8 Zookeeper", zk(8)),
    ];
    let m = Matrix::run(systems, scale.process_counts(), scale.items_per_proc(), 7);
    let mut report = Report::new("Fig 8: DUFS (2 Lustre back-ends) vs ensemble size", scale);
    m.tables(&mut report, &Phase::ALL);

    report.note("");
    let (zk1, zk8) = (m.at_max(1, Phase::DirStat), m.at_max(3, Phase::DirStat));
    report.check(
        "dir stat improves with ensemble size (Fig 8c)",
        zk8 > zk1 * 1.5,
        format!("1zk={} 8zk={}", fmt_ops(zk1), fmt_ops(zk8)),
    );
    let (zk1, zk8) = (m.at_max(1, Phase::DirCreate), m.at_max(3, Phase::DirCreate));
    report.check(
        "dir create does NOT improve with ensemble size (Fig 8a)",
        zk8 < zk1 * 1.3,
        format!("1zk={} 8zk={}", fmt_ops(zk1), fmt_ops(zk8)),
    );
    let lustre = m.at_max(0, Phase::DirCreate);
    report.check(
        "DUFS beats Basic Lustre for dir create at max procs (Fig 8a)",
        zk8 > lustre,
        format!("lustre={} dufs={}", fmt_ops(lustre), fmt_ops(zk8)),
    );
    report
}
