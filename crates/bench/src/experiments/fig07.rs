//! Fig 7 — raw coordination-service throughput for the four basic
//! operations (`zoo_create`, `zoo_delete`, `zoo_set`, `zoo_get`), varying
//! the ensemble size (1/4/8 servers) and the number of closed-loop client
//! processes spread over 8 client nodes.
//!
//! Paper behaviour to reproduce: mutation throughput *drops* as servers are
//! added (every follower adds propose/ack/commit work at the leader), while
//! read throughput *scales out* (each server answers reads locally).

use dufs_mdtest::scenario::{run_zk_raw, RawOp, RawTuning};

use crate::{fmt_ops, Report, Scale, Value};

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let servers = [1usize, 4, 8];
    let items = scale.items_per_proc();
    let mut report = Report::new("Fig 7: raw coordination throughput (ops/sec)", scale);

    for (op, caption) in [
        (RawOp::Create, "(a) zoo_create()"),
        (RawOp::Delete, "(b) zoo_delete()"),
        (RawOp::Set, "(c) zoo_set()"),
        (RawOp::Get, "(d) zoo_get()"),
    ] {
        let headers = std::iter::once("procs".to_string())
            .chain(servers.iter().map(|s| format!("{s} server(s)")));
        report.table(caption, headers.collect());
        let mut peak = [0.0f64; 3];
        for p in scale.process_counts() {
            let mut row = vec![p.into()];
            for (i, &s) in servers.iter().enumerate() {
                let x = run_zk_raw(s, 0, p, op, items, 42, RawTuning::default()).ops_per_sec;
                peak[i] = peak[i].max(x);
                row.push(Value::ops(x));
            }
            report.row(row);
        }
        let (shape, holds) = match op {
            RawOp::Get => ("reads scale OUT with servers (paper Fig 7d)", peak[2] > peak[0] * 2.0),
            _ => ("writes slow DOWN with servers (paper Fig 7a-c)", peak[0] > peak[2] * 1.5),
        };
        report.check(shape, holds, format!("1s={} 8s={}", fmt_ops(peak[0]), fmt_ops(peak[2])));
    }
    report.note(
        "\npaper anchors: 1-server create ~14k ops/s; 8-server create ~6k; 8-server get ~160k",
    );
    report
}
