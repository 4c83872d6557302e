//! `dufs-bench` — every figure, table and ablation of the reproduction
//! behind one command line:
//!
//! ```text
//! dufs-bench list                  # the experiments, their results files, smoke gates
//! dufs-bench <experiment>          # run one at quick scale, rewrite its results file(s)
//! FULL=1 dufs-bench <experiment>   # ... at paper scale
//! dufs-bench <experiment> --smoke  # its reduced CI run (writes nothing)
//! dufs-bench all                   # every experiment; FULL=1 regenerates results/
//! dufs-bench smoke                 # = all --smoke: every experiment with a smoke gate
//! ```
//!
//! These are the paper's figures and the layer ablations; the end-to-end
//! POSIX-op benchmark that gates performance is `benchmark/run.sh`.
//!
//! Exit status: 0 when every required gate held, 1 when one failed (the
//! failing experiment's results files are left untouched), 2 on a usage
//! error.

use dufs_bench::experiments::{net, Experiment, EXPERIMENTS};
use dufs_bench::Scale;

/// Run one experiment: print its report, write its results files unless
/// this is a smoke run or a required gate failed. Returns whether every
/// required gate held.
fn run(e: &Experiment, scale: Scale) -> bool {
    println!("==> dufs-bench {}", e.name);
    let report = (e.run)(scale);
    print!("{}", report.text(None));
    let failed = report.failed_gates();
    for gate in &failed {
        eprintln!("FAILED gate {}: {gate}", e.name);
    }
    if failed.is_empty() && scale != Scale::Smoke {
        for (i, file) in e.files.iter().enumerate() {
            let path = format!("results/{file}");
            let body = if file.ends_with(".json") { report.json(i) } else { report.text(Some(i)) };
            match std::fs::write(&path, body) {
                Ok(()) => println!("wrote {path}"),
                Err(err) => eprintln!("could not write {path}: {err}"),
            }
        }
    }
    println!();
    failed.is_empty()
}

fn usage(problem: &str) -> ! {
    eprintln!("dufs-bench: {problem}");
    eprintln!("usage: [FULL=1] dufs-bench <experiment>|all|smoke|list [--smoke]\nexperiments:");
    for e in &EXPERIMENTS {
        eprintln!("  {}", e.name);
    }
    std::process::exit(2)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_flag = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let [command] = args.as_slice() else { usage("expected exactly one command") };
    let scale = if smoke_flag || command == "smoke" {
        Scale::Smoke
    } else if std::env::var("FULL").is_ok_and(|v| v == "1") {
        Scale::Full
    } else {
        Scale::Quick
    };

    let selected: Vec<&Experiment> = match command.as_str() {
        "echo-server" => return net::echo_server_child(),
        "list" => {
            for e in &EXPERIMENTS {
                let smoke = if e.smoke { "  [--smoke]" } else { "" };
                println!("{:<12} results/{}{smoke}", e.name, e.files.join(" results/"));
            }
            return;
        }
        "all" | "smoke" => EXPERIMENTS.iter().collect(),
        name => EXPERIMENTS.iter().filter(|e| e.name == name).collect(),
    };
    if selected.is_empty() {
        usage(&format!("no experiment named {command:?}"));
    }
    let selected: Vec<_> =
        selected.into_iter().filter(|e| e.smoke || scale != Scale::Smoke).collect();
    if selected.is_empty() {
        usage(&format!("{command} has no smoke gate"));
    }

    // Run everything even after a failure, so one report lists every
    // tripped gate.
    let failed = selected.into_iter().filter(|e| !run(e, scale)).count();
    if failed > 0 {
        eprintln!("dufs-bench: {failed} experiment(s) failed a required gate");
        std::process::exit(1);
    }
}
