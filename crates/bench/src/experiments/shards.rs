//! Namespace-sharding sweep — mdtest create throughput against 1, 2 and
//! 4 independent single-voter ZAB ensembles ("shards") with client-side
//! consistent-hash routing.
//!
//! Every write in the single-ensemble deployment funnels through one ZAB
//! leader; the `reads` experiment shows reads escaping that bottleneck via
//! followers, and this sweep shows writes escaping it via sharding: the
//! ring maps each path's parent directory to a shard, so create-heavy
//! workloads spread across independent leaders. The shards-1 column runs
//! the identical simulation the unsharded harness always ran — gated
//! bit-identical to a plain (default `shards` field) run of the same
//! configuration — and every seed must build the same logical namespace at
//! every shard count: sharding changes placement, never contents.
//!
//! Cells are the median over the seeds. `--smoke` is the 1-vs-2-shard
//! parity check on a tiny workload with one seed.

use dufs_mdtest::scenario::{
    run_mdtest_report, MdtestConfig, MdtestReport, MdtestSystem, PhaseResult,
};
use dufs_mdtest::workload::{Phase, WorkloadSpec};

use crate::{median_by, Report, Scale, Value};

const PHASES: [(Phase, &str); 2] =
    [(Phase::DirCreate, "dir_create"), (Phase::FileCreate, "file_create")];

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let smoke = scale == Scale::Smoke;
    let (procs, items, backends) =
        if smoke { (8, 8, 2) } else { (scale.pick(64, 256), scale.items_per_proc(), 8) };
    let shard_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let seeds: &[u64] = if smoke { &[42] } else { &[42, 43, 44] };
    let config = |seed| {
        let spec = WorkloadSpec {
            phases: PHASES.iter().map(|(p, _)| *p).collect(),
            ..WorkloadSpec::mdtest(procs, items)
        };
        MdtestConfig::new(MdtestSystem::DufsLustre { zk_servers: 1, backends }, spec, seed)
    };

    let mut report = Report::new("Namespace-sharding sweep: mdtest create ops/sec", scale);
    report.field("op", "mdtest create phases (dir_create, file_create)");
    report.field("processes", procs);
    report.field("items_per_proc", items);
    report.field("zk_servers_per_shard", 1usize);
    report.field("backends", backends);
    report.field("seeds", format!("{seeds:?}"));
    report.field("aggregation", format!("median of {} seeds", seeds.len()));

    // runs[shard count][seed]
    let runs: Vec<Vec<MdtestReport>> = shard_counts
        .iter()
        .map(|&shards| {
            seeds
                .iter()
                .map(|&s| run_mdtest_report(&MdtestConfig { shards, ..config(s) }))
                .collect()
        })
        .collect();

    report.table(
        "runs",
        vec!["shards", "phase", "ops_per_sec", "mean_latency_us", "p99_latency_us", "speedup"],
    );
    let mut dir_create_speedup = Vec::new();
    for (si, &shards) in shard_counts.iter().enumerate() {
        for (pi, (_, phase)) in PHASES.iter().enumerate() {
            let median = |si: usize, metric: fn(&PhaseResult) -> f64| {
                median_by(runs[si].iter().map(|r| metric(&r.phases[pi])).collect(), |x| *x)
            };
            let ops = median(si, |p| p.ops_per_sec);
            let speedup = ops / median(0, |p| p.ops_per_sec);
            if pi == 0 {
                dir_create_speedup.push(speedup);
            }
            report.row(vec![
                shards.into(),
                (*phase).into(),
                Value::ops(ops),
                Value::float(median(si, |p| p.mean_latency_us), 1),
                Value::float(median(si, |p| p.p99_latency_us), 1),
                Value::unit(speedup, 3, "x"),
            ]);
        }
    }

    let errors: u64 = runs.iter().flatten().flat_map(|r| &r.phases).map(|p| p.errors).sum();
    report.gate("every run is error-free", errors == 0, format!("{errors} failed operations"));
    // The shards-1 cell must be the run the harness always did: a plain
    // config (default shards field), bit for bit.
    let plain = run_mdtest_report(&config(seeds[0]));
    let same = plain.namespace_digest == runs[0][0].namespace_digest
        && plain.phases.iter().zip(&runs[0][0].phases).all(|(a, b)| {
            a.ops == b.ops
                && a.ops_per_sec == b.ops_per_sec
                && a.mean_latency_us == b.mean_latency_us
        });
    report.gate(
        "shards-1 cell bit-identical to the unsharded run",
        same,
        format!("namespace digest {:#018x}", plain.namespace_digest),
    );
    let digests = |runs: &[MdtestReport]| runs.iter().map(|r| r.logical_digest).collect::<Vec<_>>();
    report.gate(
        "every shard count builds the same logical namespace",
        runs.iter().all(|r| digests(r) == digests(&runs[0])),
        format!("logical digests {:x?} per seed", digests(&runs[0])),
    );
    if !smoke {
        let (s2, s4) = (dir_create_speedup[1], dir_create_speedup[2]);
        report.field("dir_create_speedup_2_shards", Value::unit(s2, 3, "x"));
        report.field("dir_create_speedup_4_shards", Value::unit(s4, 3, "x"));
        report.check(
            "dir_create scales with shards (targets 1.6x at 2, 2.5x at 4)",
            s2 >= 1.6 && s4 >= 2.5,
            format!("{s2:.2}x at 2 shards, {s4:.2}x at 4"),
        );
    }
    report
}
