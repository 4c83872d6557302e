//! The `dufs-bench` command line and its registry, from the outside.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use dufs_bench::experiments::EXPERIMENTS;

fn dufs_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dufs-bench")).args(args).output().expect("run dufs-bench")
}

#[test]
fn list_prints_every_registered_experiment() {
    let out = dufs_bench(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let names: Vec<&str> = stdout.lines().filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(names, EXPERIMENTS.iter().map(|e| e.name).collect::<Vec<_>>());
}

#[test]
fn an_unknown_experiment_exits_2_with_the_list() {
    let out = dufs_bench(&["nonsense"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a usage error prints nothing to stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("no experiment named \"nonsense\""), "{stderr}");
    for e in &EXPERIMENTS {
        assert!(stderr.lines().any(|l| l.trim() == e.name), "{} missing from:\n{stderr}", e.name);
    }
    // A smoke run of an experiment without a smoke gate is a usage error too.
    assert_eq!(dufs_bench(&["fig07", "--smoke"]).status.code(), Some(2));
    assert_eq!(dufs_bench(&[]).status.code(), Some(2));
}

/// Every committed file under `results/` is regenerated by exactly one
/// experiment, and every experiment's files are committed.
#[test]
fn the_registry_and_results_claim_each_other() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed: BTreeSet<String> = std::fs::read_dir(&results)
        .expect("results/ exists")
        .map(|f| f.expect("dir entry").file_name().into_string().expect("utf-8 file name"))
        .collect();
    let claimed: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.files.iter().copied()).collect();
    let unique: BTreeSet<String> = claimed.iter().map(|f| f.to_string()).collect();
    assert_eq!(unique.len(), claimed.len(), "a results file is claimed twice: {claimed:?}");
    assert_eq!(unique, committed);

    let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
    assert!(!names.contains("all") && !names.contains("smoke") && !names.contains("list"));
}
