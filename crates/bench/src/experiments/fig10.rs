//! Fig 10 — the paper's headline comparison: Basic Lustre, DUFS over
//! 2 Lustre mounts, Basic PVFS2, and DUFS over 2 PVFS2 mounts, across
//! client-process counts, for all six mdtest operations.
//!
//! Paper behaviour to reproduce (§V-D):
//! * Lustre is strong at few clients and *degrades* as they multiply;
//! * DUFS is mediocre at small scale but overtakes Lustre at 256 procs on
//!   all six operations;
//! * directory operations through DUFS are identical for both back-ends
//!   (they never touch the back-end);
//! * Basic PVFS2 mutation throughput is an order of magnitude below
//!   everything else; DUFS-over-PVFS2 ≫ PVFS2 alone.

use dufs_mdtest::scenario::MdtestSystem;
use dufs_mdtest::workload::Phase;

use crate::{fmt_ops, Matrix, Report, Scale};

/// The four systems of Fig 10, in the column order of its plots (shared
/// with the headline table, which is derived from the same runs).
pub fn systems() -> Vec<(&'static str, MdtestSystem)> {
    vec![
        ("Basic Lustre", MdtestSystem::BasicLustre),
        ("DUFS 2xLustre", MdtestSystem::DufsLustre { zk_servers: 8, backends: 2 }),
        ("Basic PVFS", MdtestSystem::BasicPvfs2),
        ("DUFS 2xPVFS", MdtestSystem::DufsPvfs2 { zk_servers: 8, backends: 2 }),
    ]
}

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let m = Matrix::run(systems(), scale.process_counts(), scale.items_per_proc(), 13);
    let mut report = Report::new("Fig 10: DUFS vs native Lustre/PVFS2", scale);
    m.tables(&mut report, &Phase::ALL);

    report.note("");
    let mut all = true;
    for phase in Phase::ALL {
        let (lustre, dufs) = (m.at_max(0, phase), m.at_max(1, phase));
        all &= dufs > lustre;
        report.check(
            &format!("{} at max procs: DUFS beats Basic Lustre", phase.label()),
            dufs > lustre,
            format!("Basic Lustre={}, DUFS={}", fmt_ops(lustre), fmt_ops(dufs)),
        );
    }
    let (on_lustre, on_pvfs) = (m.at_max(1, Phase::DirCreate), m.at_max(3, Phase::DirCreate));
    report.check(
        "dir ops identical for both DUFS back-ends (never touch storage)",
        (on_lustre - on_pvfs).abs() / on_lustre < 0.15,
        format!("{} vs {}", fmt_ops(on_lustre), fmt_ops(on_pvfs)),
    );
    report.note(if all {
        "\noverall: DUFS outperforms Lustre for all 6 operations at max procs (paper SVII)"
    } else {
        "\noverall: some shapes mismatched"
    });
    report
}
