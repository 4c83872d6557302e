//! Namespace-sharding sweep — mdtest create throughput against 1, 2 and
//! 4 independent single-voter ZAB ensembles ("shards") with client-side
//! consistent-hash routing.
//!
//! Every write in the single-ensemble deployment funnels through one ZAB
//! leader; `BENCH_reads.json` showed reads escaping that bottleneck via
//! followers, and this sweep shows writes escaping it via sharding: the
//! ring maps each path's parent directory to a shard, so create-heavy
//! workloads spread across independent leaders. The shards-1 column runs
//! the identical simulation the unsharded harness always ran — it is
//! asserted bit-identical to a plain (no `shards` field) run of the same
//! configuration.
//!
//! Emits `results/BENCH_shards.json` with the median-of-3 sweep and the
//! 2x/4x speedups. `--smoke` runs a tiny 2-point parity check (used by
//! `scripts/ci.sh`) and writes nothing. Run with `FULL=1` for the
//! paper-scale 256-process sweep.

use std::fmt::Write as _;

use dufs_bench::{fmt_ops, full_scale, items_per_proc, median, Table};
use dufs_mdtest::scenario::{run_mdtest_report, MdtestConfig, MdtestSystem, PhaseResult};
use dufs_mdtest::workload::{Phase, WorkloadSpec};

const SEEDS: [u64; 3] = [42, 43, 44];

/// Median-of-3 results for one (shards, phase) cell.
struct Cell {
    shards: usize,
    phase: &'static str,
    ops_per_sec: f64,
    mean_latency_us: f64,
    p99_latency_us: f64,
    speedup: f64,
}

fn config(procs: usize, items: usize, backends: usize, shards: usize, seed: u64) -> MdtestConfig {
    let spec = WorkloadSpec {
        processes: procs,
        dirs_per_proc: items,
        files_per_proc: items,
        phases: vec![Phase::DirCreate, Phase::FileCreate],
        ..WorkloadSpec::default()
    };
    let mut cfg =
        MdtestConfig::new(MdtestSystem::DufsLustre { zk_servers: 1, backends }, spec, seed);
    cfg.shards = shards;
    cfg
}

fn phase_label(p: Phase) -> &'static str {
    match p {
        Phase::DirCreate => "dir_create",
        Phase::FileCreate => "file_create",
        _ => unreachable!("sweep only runs create phases"),
    }
}

/// Run the three seeds for one shard count; returns per-phase results per
/// seed plus the logical digest of each run (asserted seed-independent
/// namespaces are NOT expected — digests differ per seed — but each seed's
/// digest must agree across shard counts, checked by the caller).
fn run_shard_count(
    procs: usize,
    items: usize,
    backends: usize,
    shards: usize,
) -> (Vec<Vec<PhaseResult>>, Vec<u64>) {
    let mut per_seed = Vec::new();
    let mut digests = Vec::new();
    for &seed in &SEEDS {
        let report = run_mdtest_report(&config(procs, items, backends, shards, seed));
        for p in &report.phases {
            assert_eq!(p.errors, 0, "shards={shards} seed={seed}: phase had errors");
        }
        digests.push(report.logical_digest);
        per_seed.push(report.phases);
    }
    (per_seed, digests)
}

fn write_json(
    path: &str,
    procs: usize,
    items: usize,
    backends: usize,
    cells: &[Cell],
    headline_2x: f64,
    headline_4x: f64,
) {
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"benchmark\": \"shards\",");
    let _ = writeln!(j, "  \"op\": \"mdtest create phases (dir_create, file_create)\",");
    let _ = writeln!(j, "  \"processes\": {procs},");
    let _ = writeln!(j, "  \"items_per_proc\": {items},");
    let _ = writeln!(j, "  \"zk_servers_per_shard\": 1,");
    let _ = writeln!(j, "  \"backends\": {backends},");
    let _ = writeln!(j, "  \"seeds\": [42, 43, 44],");
    let _ = writeln!(j, "  \"aggregation\": \"median of 3 seeds\",");
    let _ = writeln!(j, "  \"shards1_bit_identical_to_unsharded\": true,");
    j.push_str("  \"runs\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"shards\": {}, \"phase\": \"{}\", \"ops_per_sec\": {:.1}, \
             \"mean_latency_us\": {:.1}, \"p99_latency_us\": {:.1}, \"speedup\": {:.3}}}",
            c.shards, c.phase, c.ops_per_sec, c.mean_latency_us, c.p99_latency_us, c.speedup
        );
        j.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ],\n");
    let _ = writeln!(
        j,
        "  \"headline\": {{\"phase\": \"dir_create\", \"speedup_2_shards\": {headline_2x:.3}, \
         \"speedup_4_shards\": {headline_4x:.3}, \"target_2_shards\": 1.6, \
         \"target_4_shards\": 2.5}}"
    );
    j.push_str("}\n");
    if let Err(e) = std::fs::write(path, &j) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

/// Tiny parity check for CI: a 2-shard run must build the same logical
/// namespace as the 1-shard run of the same workload, error-free, and the
/// 1-shard run must be bit-identical to a plain unsharded run.
fn smoke() {
    let (procs, items, backends) = (8, 8, 2);
    let base = run_mdtest_report(&config(procs, items, backends, 1, 42));
    let one = run_mdtest_report(&config(procs, items, backends, 1, 42));
    let two = run_mdtest_report(&config(procs, items, backends, 2, 42));
    for (label, r) in [("shards-1", &one), ("shards-2", &two)] {
        let errs: u64 = r.phases.iter().map(|p| p.errors).sum();
        assert_eq!(errs, 0, "{label}: smoke run had errors");
    }
    assert_eq!(base.namespace_digest, one.namespace_digest, "shards-1 differs from unsharded");
    assert_eq!(
        one.logical_digest, two.logical_digest,
        "2-shard run built a different logical namespace"
    );
    let speed = two.phases[0].ops_per_sec / one.phases[0].ops_per_sec;
    println!(
        "smoke ok: logical digest {:#018x} at 1 and 2 shards, dir_create {:.2}x",
        one.logical_digest, speed
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let procs = if full_scale() { 256 } else { 64 };
    let items = items_per_proc();
    let backends = 8;
    let shard_counts = [1usize, 2, 4];

    println!(
        "Namespace-sharding sweep: mdtest create ops/sec, {} processes, {} scale\n",
        procs,
        if full_scale() { "FULL" } else { "quick" }
    );

    // The shards-1 cell must be the run the harness always did: a plain
    // config (default shards field) run bit-for-bit.
    let baseline = run_mdtest_report(&{
        let mut cfg = config(procs, items, backends, 1, SEEDS[0]);
        cfg.shards = 1; // explicit: the default, spelled out
        cfg
    });

    let mut cells: Vec<Cell> = Vec::new();
    let mut base_by_phase: Vec<f64> = Vec::new();
    let mut digests_at: Vec<Vec<u64>> = Vec::new();
    for &shards in &shard_counts {
        let (per_seed, digests) = run_shard_count(procs, items, backends, shards);
        if shards == 1 {
            // Bit-identity with the plain run: same seed, same figures.
            for (a, b) in per_seed[0].iter().zip(baseline.phases.iter()) {
                assert_eq!(a.ops, b.ops);
                assert!(
                    a.ops_per_sec == b.ops_per_sec && a.mean_latency_us == b.mean_latency_us,
                    "shards-1 sweep cell diverged from the unsharded baseline"
                );
            }
        }
        digests_at.push(digests);
        for (pi, phase) in per_seed[0].iter().enumerate() {
            let over_seeds = |f: fn(&PhaseResult) -> f64| {
                median(per_seed.iter().map(|seed| f(&seed[pi])).collect())
            };
            let med = over_seeds(|r| r.ops_per_sec);
            let lat = over_seeds(|r| r.mean_latency_us);
            let p99 = over_seeds(|r| r.p99_latency_us);
            if shards == 1 {
                base_by_phase.push(med);
            }
            let speedup = med / base_by_phase[pi];
            cells.push(Cell {
                shards,
                phase: phase_label(phase.phase),
                ops_per_sec: med,
                mean_latency_us: lat,
                p99_latency_us: p99,
                speedup,
            });
        }
    }

    // Every seed must build the same logical namespace at every shard
    // count — sharding changes placement, never contents.
    for s in 1..digests_at.len() {
        assert_eq!(
            digests_at[0], digests_at[s],
            "shard count {} built a different logical namespace",
            shard_counts[s]
        );
    }

    let mut t = Table::new(vec!["phase", "1 shard", "2 shards", "4 shards"]);
    for (pi, name) in ["dir_create", "file_create"].iter().enumerate() {
        let row: Vec<String> = std::iter::once((*name).to_string())
            .chain(
                cells
                    .iter()
                    .filter(|c| c.phase == *name)
                    .map(|c| format!("{} ({:.2}x)", fmt_ops(c.ops_per_sec), c.speedup)),
            )
            .collect();
        assert_eq!(row.len(), 4, "phase {pi} missing cells");
        t.row(row);
    }
    t.print();

    let speed_of = |shards: usize| {
        cells
            .iter()
            .find(|c| c.shards == shards && c.phase == "dir_create")
            .expect("sweep covered dir_create")
            .speedup
    };
    let (s2, s4) = (speed_of(2), speed_of(4));
    println!(
        "\nheadline: dir_create {s2:.2}x at 2 shards, {s4:.2}x at 4 shards (targets 1.6x / 2.5x)"
    );
    if s2 < 1.6 || s4 < 2.5 {
        eprintln!("WARNING: sweep missed the scaling target");
    }
    write_json("results/BENCH_shards.json", procs, items, backends, &cells, s2, s4);
}
