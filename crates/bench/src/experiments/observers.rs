//! Extension — **observers**: ZooKeeper's answer to the exact trade-off
//! Fig 7 exposes (reads scale with servers, writes slow with servers,
//! §V-B settles on 8 as "a good compromise").
//!
//! A non-voting observer replicates the committed stream and serves local
//! reads, but never joins election/ack quorums — so adding observers buys
//! read throughput *without* adding propose/ack/commit work at the leader.
//! This bench holds the voter count at 3 and sweeps observers, against the
//! paper's approach of growing the voting ensemble.

use dufs_mdtest::scenario::{run_zk_raw, RawOp, RawTuning};

use crate::{fmt_ops, Report, Scale, Value};

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let procs = scale.pick(48, 128);
    let items = scale.items_per_proc();
    let mut report = Report::new(format!("Observer ablation ({procs} client processes)"), scale);
    // (create, get) throughput of `voters` voting servers plus `observers`.
    let cell = |voters, observers| {
        let run = |op| {
            run_zk_raw(voters, observers, procs, op, items, 3, RawTuning::default()).ops_per_sec
        };
        (run(RawOp::Create), run(RawOp::Get))
    };

    report.table(
        "growing the VOTING ensemble (the paper's only option):",
        vec!["voters", "create ops/s", "get ops/s"],
    );
    let voting = [3usize, 5, 8].map(|n| (n, cell(n, 0)));
    for (n, (create, get)) in voting {
        report.row(vec![n.into(), Value::ops(create), Value::ops(get)]);
    }

    report.table(
        "holding 3 voters and adding OBSERVERS instead:",
        vec!["voters+observers", "create ops/s", "get ops/s"],
    );
    let observed = [0usize, 2, 5].map(|o| (o, cell(3, o)));
    for (o, (create, get)) in observed {
        report.row(vec![format!("3+{o}").into(), Value::ops(create), Value::ops(get)]);
    }

    let [(_, (create_3v, _)), _, (_, (create_8v, _))] = voting;
    let [(_, (create_3v_0o, _)), _, (_, (create_3v_5o, get_3v_5o))] = observed;
    let obs_penalty = (1.0 - create_3v_5o / create_3v_0o) * 100.0;
    let voter_penalty = (1.0 - create_8v / create_3v) * 100.0;
    report.note(format!(
        "\nsame 8 servers either way: 8 voters -> writes -{voter_penalty:.0}%; \
         3 voters + 5 observers -> writes -{obs_penalty:.0}% and reads {} \
         (the residual cost is the one INFORM per observer per commit).",
        fmt_ops(get_3v_5o)
    ));
    report.check(
        "observers at most half the voting write penalty",
        obs_penalty < voter_penalty / 2.0 + 1.0,
        format!("-{obs_penalty:.0}% vs -{voter_penalty:.0}%"),
    );
    report
}
