//! The paper's headline numbers (abstract / §V-D), regenerated:
//!
//! > "With 256 client processes, our decentralized metadata service
//! > outperforms Lustre and PVFS2 by a factor of 1.9 and 23, respectively,
//! > to create directories. With respect to stat() operation on files, our
//! > approach is 1.3 and 3.0 times faster than Lustre and PVFS."
//!
//! Ratios are computed at the largest process count of the scale (256 at
//! paper scale).

use dufs_mdtest::workload::Phase;

use crate::experiments::fig10;
use crate::{paper, Matrix, Report, Scale, Value};

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let procs = *scale.process_counts().last().expect("non-empty");
    let m = Matrix::run(fig10::systems(), vec![procs], scale.items_per_proc(), 99);
    let mut report = Report::new(format!("Headline comparison at {procs} client processes"), scale);

    // Column indices of `fig10::systems()`.
    let (lustre, dufs_l, pvfs, dufs_p) = (0, 1, 2, 3);
    use Phase::{DirCreate, FileStat};
    report.table("", vec!["metric", "paper", "measured", "verdict"]);
    for (metric, stated, phase, dufs, native) in [
        ("dir create: DUFS vs Lustre", paper::DIR_CREATE_VS_LUSTRE, DirCreate, dufs_l, lustre),
        ("dir create: DUFS vs PVFS2", paper::DIR_CREATE_VS_PVFS, DirCreate, dufs_p, pvfs),
        ("file stat: DUFS vs Lustre", paper::FILE_STAT_VS_LUSTRE, FileStat, dufs_l, lustre),
        ("file stat: DUFS vs PVFS2", paper::FILE_STAT_VS_PVFS, FileStat, dufs_p, pvfs),
    ] {
        let measured = m.at_max(dufs, phase) / m.at_max(native, phase);
        // "Shape" criterion: the right side wins, within a loose factor.
        let verdict = if measured < 1.0 {
            "MISMATCH"
        } else if measured / stated > 0.4 && measured / stated < 3.0 {
            "OK"
        } else {
            "right direction"
        };
        report.row(vec![
            metric.into(),
            Value::unit(stated, 1, "x"),
            Value::unit(measured, 1, "x"),
            verdict.into(),
        ]);
    }

    let headers = std::iter::once("operation").chain(fig10::systems().into_iter().map(|(n, _)| n));
    report.table("raw numbers (ops/sec):", headers.collect());
    for phase in [DirCreate, FileStat] {
        let cells = [lustre, dufs_l, pvfs, dufs_p].map(|s| Value::ops(m.at_max(s, phase)));
        report.row(std::iter::once(phase.label().into()).chain(cells).collect());
    }
    report
}
