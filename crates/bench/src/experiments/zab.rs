//! Ablation — where does the write slowdown of Figs 7a–c come from?
//!
//! Sweeps the coordination ensemble size at a fixed client population and
//! decomposes write throughput, confirming the leader-fan-out explanation
//! the cost model encodes: every follower adds propose/ack/commit work to
//! the leader's ordered pipeline, so throughput falls roughly as
//! `1 / (base + 3·(n-1)·per_msg)` while read throughput rises linearly in
//! the number of servers.

use dufs_mdtest::costs;
use dufs_mdtest::scenario::{run_zk_raw, RawOp, RawTuning};

use crate::{Report, Scale, Value};

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let procs = scale.pick(32, 128);
    let items = scale.items_per_proc();
    let mut report =
        Report::new(format!("ZAB ensemble-size ablation ({procs} client processes)"), scale);

    report.table(
        "",
        vec![
            "servers",
            "quorum",
            "create ops/s",
            "model create",
            "create p99",
            "get ops/s",
            "model get",
        ],
    );
    for n in [1usize, 2, 3, 4, 5, 8] {
        let run = |op| run_zk_raw(n, 0, procs, op, items, 21, RawTuning::default());
        let (detail, get) = (run(RawOp::Create), run(RawOp::Get).ops_per_sec);
        // Closed-form model (same constants as the simulator's cost model).
        let t_write = costs::ZK_WRITE_BASE_US
            + 2.0 * costs::ZK_CLIENT_MSG_US
            + 3.0 * (n as f64 - 1.0) * costs::ZK_PEER_MSG_US;
        let per_server_read = 1e6 / (costs::ZK_READ_US + 2.0 * costs::ZK_CLIENT_MSG_US);
        let model_get = (n as f64 * per_server_read).min(
            // Client CPU ceiling.
            (costs::CLIENT_NODES * costs::NODE_CORES) as f64 * 1e6 / costs::RAW_CLIENT_OP_US,
        );
        report.row(vec![
            n.into(),
            (n / 2 + 1).into(),
            Value::ops(detail.ops_per_sec),
            Value::ops(1e6 / t_write),
            Value::unit(detail.p99_latency_us / 1000.0, 1, "ms"),
            Value::ops(get),
            Value::ops(model_get),
        ]);
    }
    report.note(
        "\nreading: measured write throughput should track the fan-out model\n\
         (diminishing returns per extra follower), and reads should scale\n\
         until the client-side CPU ceiling.",
    );
    report
}
