//! Fig 9 — file-operation throughput for DUFS with 2 vs 4 Lustre
//! back-ends (8 coordination servers) against Basic Lustre.
//!
//! Paper behaviour to reproduce: creation/removal barely improve with more
//! back-ends (the coordination write pipeline dominates), while file stat
//! gains substantially — "an improvement of more than 37% with 256 client
//! processes" (§V-C).

use dufs_mdtest::scenario::MdtestSystem;
use dufs_mdtest::workload::Phase;

use crate::{fmt_ops, Matrix, Report, Scale};

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let systems = vec![
        ("Basic Lustre", MdtestSystem::BasicLustre),
        ("DUFS 2 backends", MdtestSystem::DufsLustre { zk_servers: 8, backends: 2 }),
        ("DUFS 4 backends", MdtestSystem::DufsLustre { zk_servers: 8, backends: 4 }),
    ];
    let m = Matrix::run(systems, scale.process_counts(), scale.items_per_proc(), 11);
    let mut report = Report::new("Fig 9: file operations vs number of back-end storages", scale);
    m.tables(&mut report, &[Phase::FileCreate, Phase::FileRemove, Phase::FileStat]);

    report.note("");
    let gain = (m.at_max(2, Phase::FileStat) / m.at_max(1, Phase::FileStat) - 1.0) * 100.0;
    report.check(
        "file stat gains with 4 vs 2 back-ends at max procs (paper: >37%)",
        gain > 20.0,
        format!("{gain:.0}%"),
    );
    let (cre2, cre4) = (m.at_max(1, Phase::FileCreate), m.at_max(2, Phase::FileCreate));
    report.check(
        "file create gains only slightly (paper: 'small improvement')",
        cre4 < cre2 * 1.25,
        format!("2be={} 4be={}", fmt_ops(cre2), fmt_ops(cre4)),
    );
    report
}
