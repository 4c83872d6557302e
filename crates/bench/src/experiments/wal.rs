//! Write-ahead-log ablation — what durability costs, and how much of that
//! cost group commit buys back.
//!
//! Two sweeps:
//!
//! 1. **Simulated testbed** (same harness as Fig 7): `zoo_create()` against
//!    the paper's 8-server ensemble with every server behind a `dufs-wal`
//!    log, fsync gating ACKs. Cells: the paper's in-memory baseline, naive
//!    fsync-per-txn (batch 1), and group-commit batches that amortize one
//!    flush across a whole ZAB batch. The in-memory batch-1 cell must be
//!    *bit-identical* to `run_zk_raw` — durability is opt-in and does not
//!    perturb the figures.
//! 2. **Real filesystem**: `Wal` over `FileStorage` in a scratch
//!    directory, sweeping fsync-batch size × segment size, timing appends
//!    and cold-start recovery (`reopen`).

use std::time::Instant;

use dufs_mdtest::scenario::{run_zk_raw, RawOp, RawTuning};
use dufs_mdtest::ScratchDir;
use dufs_wal::{FileStorage, Wal, WalConfig};
use dufs_zab::ZabConfig;

use crate::{fmt_ops, Report, Scale, Value};

const SERVERS: usize = 8;

fn sim_sweep(report: &mut Report, procs: usize, items: usize) {
    report.field("sim_op", "zoo_create");
    report.field("sim_servers", SERVERS);
    report.field("processes", procs);
    report.field("items_per_proc", items);
    report.table(
        "sim_runs",
        vec![
            "label",
            "durable",
            "batch",
            "ops_per_sec",
            "vs_in_memory",
            "mean_latency_us",
            "p99_latency_us",
        ],
    );
    let mut ops = Vec::new();
    for (label, durable, batch) in [
        ("in-memory (paper)", false, 1),
        ("durable, fsync/txn", true, 1),
        ("durable, batch 8", true, 8),
        ("durable, batch 32", true, 32),
        ("durable, batch 64", true, 64),
    ] {
        let tuning = RawTuning { zab: ZabConfig::batched(batch, 1), depth: 1, durable };
        let r = run_zk_raw(SERVERS, 0, procs, RawOp::Create, items, 42, tuning);
        ops.push(r.ops_per_sec);
        report.row(vec![
            label.into(),
            durable.into(),
            batch.into(),
            Value::ops(r.ops_per_sec),
            Value::unit(r.ops_per_sec / ops[0], 2, "x"),
            Value::float(r.mean_latency_us, 1),
            Value::float(r.p99_latency_us, 1),
        ]);
    }
    let (inmem, naive) = (ops[0], ops[1]);
    let best = ops[2..].iter().copied().fold(0.0f64, f64::max);

    // The durability layer must be invisible when off: the tuned batch-1
    // in-memory run IS the figure-7 run.
    let fig7 =
        run_zk_raw(SERVERS, 0, procs, RawOp::Create, items, 42, RawTuning::default()).ops_per_sec;
    report.gate(
        "in-memory batch-1 cell bit-identical to run_zk_raw",
        inmem.to_bits() == fig7.to_bits(),
        format!("{inmem} vs {fig7}"),
    );
    // The headline claim: what fsync-per-txn loses, group commit wins back
    // — with interest, because one flush now covers a whole ZAB batch.
    let (lost, recovered) = (inmem - naive, best - naive);
    let ratio = recovered / lost.max(f64::MIN_POSITIVE);
    report.field("group_commit_recovered_vs_naive_loss", Value::unit(ratio, 3, "x"));
    report.gate(
        "fsync-per-txn costs throughput (or the charge is not wired)",
        lost > 0.0,
        format!("loses {} ops/sec", fmt_ops(lost)),
    );
    report.gate(
        "group commit recovers >= 2x the throughput naive fsync loses",
        ratio >= 2.0,
        format!("recovers {} ops/sec, {ratio:.2}x the loss", fmt_ops(recovered)),
    );
}

fn file_sweep(report: &mut Report, appends: usize) {
    report.field("file_appends", appends);
    report.field("payload_bytes", 128usize);
    report.table(
        "file_runs",
        vec![
            "fsync_batch",
            "segment_bytes",
            "appends_per_sec",
            "syncs",
            "segments",
            "recovery_ms",
            "recovered_entries",
        ],
    );
    let scratch = ScratchDir::new("bench-wal");
    let payload = vec![0xabu8; 128];
    let (mut all_recovered, mut torn) = (true, false);
    for segment_bytes in [64usize << 10, 1 << 20, 4 << 20] {
        for fsync_batch in [1usize, 8, 32, 128] {
            let dir = scratch.path().join(format!("s{segment_bytes}-b{fsync_batch}"));
            let storage = FileStorage::new(&dir).expect("create scratch dir");
            let (mut wal, _) =
                Wal::open(Box::new(storage), WalConfig { segment_bytes }).expect("open wal");

            let start = Instant::now();
            for i in 0..appends {
                wal.append_txn(i as u64 + 1, &payload).expect("append");
                if (i + 1) % fsync_batch == 0 {
                    wal.sync().expect("sync");
                }
            }
            wal.sync().expect("final sync");
            let elapsed = start.elapsed().as_secs_f64();
            let (syncs, segments) = (wal.sync_count(), wal.segment_count());

            // Cold-start recovery: rescan everything from disk.
            let storage = wal.into_storage();
            let start = Instant::now();
            let (_, rec) = Wal::open(storage, WalConfig { segment_bytes }).expect("recover wal");
            let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
            all_recovered &= rec.entries.len() == appends;
            torn |= rec.torn_tail;

            report.row(vec![
                fsync_batch.into(),
                segment_bytes.into(),
                Value::ops(appends as f64 / elapsed.max(f64::MIN_POSITIVE)),
                syncs.into(),
                segments.into(),
                Value::float(recovery_ms, 3),
                rec.entries.len().into(),
            ]);
        }
    }
    report.gate("recovery sees every synced txn", all_recovered, format!("{appends} per cell"));
    report.gate("a clean shutdown reports no torn tail", !torn, "every cell reopened");
}

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new(
        format!(
            "WAL ablation: zoo_create() over {SERVERS} durable servers + real-filesystem sweep"
        ),
        scale,
    );
    sim_sweep(&mut report, scale.pick(64, 256), scale.items_per_proc());
    file_sweep(&mut report, scale.pick(2_000, 20_000));
    report
}
