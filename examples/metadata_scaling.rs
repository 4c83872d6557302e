//! The paper's experiment in one minute: a miniature version of the §V
//! evaluation run in the deterministic simulator — raw coordination
//! throughput (Fig 7's shape) and the mdtest comparison of DUFS against a
//! Basic-Lustre baseline (Fig 10's shape).
//!
//! Run with: `cargo run --release --example metadata_scaling`
//! (release strongly recommended — this drives the discrete-event
//! simulator through a few hundred thousand events).

use dufs_repro::mdtest::scenario::{
    run_mdtest, run_zk_raw, MdtestConfig, MdtestSystem, RawOp, RawTuning,
};
use dufs_repro::mdtest::workload::{Phase, WorkloadSpec};

fn main() {
    println!("== metadata scaling, miniature edition ==\n");

    // --- Fig 7's shape: reads scale out with coordination servers, writes
    // slow down.
    println!("raw coordination throughput (32 client processes, ops/sec):");
    println!("{:>10} {:>12} {:>12}", "servers", "zoo_create", "zoo_get");
    for n in [1usize, 4, 8] {
        let run = |op| run_zk_raw(n, 0, 32, op, 30, 1, RawTuning::default()).ops_per_sec;
        let (create, get) = (run(RawOp::Create), run(RawOp::Get));
        println!("{n:>10} {create:>12.0} {get:>12.0}");
    }
    println!("  -> writes pay quorum fan-out at the leader; reads are served locally.\n");

    // --- Fig 10's shape at two client counts: Lustre wins small, DUFS wins
    // big.
    let spec = |processes| WorkloadSpec::mdtest(processes, 25);
    println!("mdtest directory creation (ops/sec):");
    println!("{:>10} {:>14} {:>14}", "procs", "Basic Lustre", "DUFS 2xLustre");
    for procs in [16usize, 64] {
        let lustre = run_mdtest(&MdtestConfig::new(MdtestSystem::BasicLustre, spec(procs), 2));
        let dufs = run_mdtest(&MdtestConfig::new(
            MdtestSystem::DufsLustre { zk_servers: 8, backends: 2 },
            spec(procs),
            2,
        ));
        let pick = |rs: &[dufs_repro::mdtest::PhaseResult]| {
            rs.iter().find(|r| r.phase == Phase::DirCreate).map(|r| r.ops_per_sec).unwrap_or(0.0)
        };
        println!("{procs:>10} {:>14.0} {:>14.0}", pick(&lustre), pick(&dufs));
    }
    println!(
        "  -> the single Lustre MDS degrades as clients multiply;\n\
         \x20    DUFS holds steady and overtakes it (the paper's crossover is at 256 procs;\n\
         \x20    run the dufs-bench fig10 binary with FULL=1 for the complete sweep)."
    );
}
