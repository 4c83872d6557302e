//! Group-commit ablation — write throughput with ZAB batching and
//! pipelined client sessions, against the paper's synchronous
//! one-round-per-write baseline.
//!
//! Sweeps batch size × pipeline depth × ensemble size for `zoo_create()`
//! (the paper's Fig 7a workload, where the write path hurts most) and
//! reports each cell's throughput next to the batch-1/depth-1 baseline of
//! the same ensemble. The baseline cells ARE the paper's configuration —
//! they reproduce Fig 7a unchanged.

use dufs_mdtest::scenario::{run_zk_raw, RawOp, RawTuning};
use dufs_zab::ZabConfig;

use crate::{Report, Scale, Value};

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let procs = scale.pick(64, 256);
    let items = scale.items_per_proc();
    let mut report = Report::new("Group-commit ablation: zoo_create() ops/sec", scale);
    report.field("op", "zoo_create");
    report.field("processes", procs);
    report.field("items_per_proc", items);

    report.table(
        "runs",
        vec![
            "servers",
            "batch",
            "depth",
            "ops_per_sec",
            "mean_latency_us",
            "p99_latency_us",
            "speedup",
        ],
    );
    // Best tuned cell (ops/sec, speedup, batch, depth) of the ensemble being
    // swept; after the loop, of the largest one.
    let mut best = (0.0, 0.0, 0, 0);
    for servers in [1usize, 4, 8] {
        // The first cell, batch 1 / depth 1, is the paper's Fig 7a run.
        let mut baseline = None;
        best = (0.0, 0.0, 0, 0);
        for batch in [1usize, 8, 32] {
            for depth in [1usize, 4, 8] {
                let tuning =
                    RawTuning { zab: ZabConfig::batched(batch, 1), depth, ..RawTuning::default() };
                let r = run_zk_raw(servers, 0, procs, RawOp::Create, items, 42, tuning);
                let speedup = r.ops_per_sec / *baseline.get_or_insert(r.ops_per_sec);
                if (batch, depth) != (1, 1) && r.ops_per_sec >= best.0 {
                    best = (r.ops_per_sec, speedup, batch, depth);
                }
                report.row(vec![
                    servers.into(),
                    batch.into(),
                    depth.into(),
                    Value::ops(r.ops_per_sec),
                    Value::float(r.mean_latency_us, 1),
                    Value::float(r.p99_latency_us, 1),
                    Value::unit(speedup, 3, "x"),
                ]);
            }
        }
    }

    // Headline: best tuned cell on the largest ensemble vs its baseline.
    let (tuned, speedup, batch, depth) = best;
    report.note("\nheadline: 8-server create, best tuned cell vs batch 1 / depth 1 (paper Fig 7a)");
    report.field("headline_batch", batch);
    report.field("headline_depth", depth);
    report.field("baseline_ops_per_sec", Value::ops(tuned / speedup));
    report.field("tuned_ops_per_sec", Value::ops(tuned));
    report.field("headline_speedup", Value::unit(speedup, 3, "x"));
    report
}
