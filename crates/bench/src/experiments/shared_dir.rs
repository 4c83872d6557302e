//! Ablation — concurrent file creation in ONE shared directory (paper §V:
//! "We have also carried out experiments where many files are created in a
//! single directory"; §VI: symmetric filesystems "induce significant
//! bottlenecks for concurrent create workloads, especially from many
//! clients working on one single directory" — the GIGA+ motivation).
//!
//! Basic Lustre serializes on the parent directory's DLM write lock, so its
//! shared-directory create throughput collapses. DUFS is nearly immune: the
//! parent *znode* update rides the ordered commit pipeline it pays anyway,
//! and the physical files land in distinct shard directories by
//! construction (Fig 4).

use dufs_mdtest::scenario::{run_mdtest, MdtestConfig, MdtestSystem};
use dufs_mdtest::workload::{Phase, WorkloadSpec};

use crate::{fmt_ops, Report, Scale, Value};

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let items = scale.items_per_proc();
    let mut report = Report::new("Shared-directory file creation ablation", scale);
    report.table(
        "",
        vec![
            "procs",
            "Lustre unique-dirs",
            "Lustre shared-dir",
            "DUFS unique-dirs",
            "DUFS shared-dir",
        ],
    );

    let dufs = MdtestSystem::DufsLustre { zk_servers: 8, backends: 2 };
    let mut last = [0.0; 4];
    for p in scale.process_counts() {
        let file_create = |system, shared_dir| {
            let spec = WorkloadSpec {
                dirs_per_proc: 4, // minimal tree; this study is about files
                phases: vec![
                    Phase::DirCreate,
                    Phase::FileCreate,
                    Phase::FileRemove,
                    Phase::DirRemove,
                ],
                shared_dir,
                ..WorkloadSpec::mdtest(p, items)
            };
            let phases = run_mdtest(&MdtestConfig::new(system, spec, 31));
            phases.iter().find(|r| r.phase == Phase::FileCreate).expect("phase ran").ops_per_sec
        };
        last = [
            file_create(MdtestSystem::BasicLustre, false),
            file_create(MdtestSystem::BasicLustre, true),
            file_create(dufs, false),
            file_create(dufs, true),
        ];
        report.row(std::iter::once(p.into()).chain(last.map(Value::ops)).collect());
    }

    let [lu, ls, du, ds] = last;
    report.note(format!(
        "\nLustre loses {:.0}% of its create throughput in one shared directory;\n\
         DUFS loses {:.0}% (parent znode updates ride the commit pipeline it pays anyway).",
        (1.0 - ls / lu) * 100.0,
        (1.0 - ds / du) * 100.0
    ));
    report.check(
        "DLM parent lock collapses Lustre while DUFS holds",
        ds > ls && (ls / lu) < (ds / du),
        format!("Lustre {} vs DUFS {}", fmt_ops(ls), fmt_ops(ds)),
    );
    report
}
