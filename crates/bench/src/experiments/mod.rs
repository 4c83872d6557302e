//! The registry: one entry per experiment, naming the module that runs
//! it, the files under `results/` it owns, and whether it accepts
//! `--smoke`.

use crate::{Report, Scale};

pub mod data;
pub mod fig01;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod groupcommit;
pub mod headline;
pub mod mapping;
pub mod micro;
pub mod net;
pub mod observers;
pub mod reads;
pub mod shards;
pub mod shared_dir;
pub mod wal;
pub mod zab;

/// One registered experiment.
pub struct Experiment {
    /// What `dufs-bench <name>` selects.
    pub name: &'static str,
    /// The files under `results/` the report is written to, in the order
    /// of the report's [`Report::next_file`] parts.
    pub files: &'static [&'static str],
    /// Whether a reduced run with gates exists for `dufs-bench smoke`.
    pub smoke: bool,
    /// Run it.
    pub run: fn(Scale) -> Report,
}

const fn entry(
    name: &'static str,
    files: &'static [&'static str],
    smoke: bool,
    run: fn(Scale) -> Report,
) -> Experiment {
    Experiment { name, files, smoke, run }
}

/// Every experiment, paper figures first.
pub const EXPERIMENTS: [Experiment; 18] = [
    entry("fig01", &["fig01_consistency.txt"], false, fig01::run),
    entry("fig07", &["fig07_zk_throughput.txt"], false, fig07::run),
    entry("fig08", &["fig08_zkservers.txt"], false, fig08::run),
    entry("fig09", &["fig09_backends.txt"], false, fig09::run),
    entry("fig10", &["fig10_lustre_pvfs.txt"], false, fig10::run),
    entry("fig11", &["fig11_memory.txt"], false, fig11::run),
    entry("headline", &["table_headline.txt"], false, headline::run),
    entry("mapping", &["bench_mapping.txt"], false, mapping::run),
    entry("zab", &["bench_zab.txt"], false, zab::run),
    entry("shared_dir", &["bench_shared_dir.txt"], false, shared_dir::run),
    entry("observers", &["bench_observers.txt"], false, observers::run),
    entry("groupcommit", &["BENCH_groupcommit.json"], false, groupcommit::run),
    entry("wal", &["BENCH_wal.json"], false, wal::run),
    entry("shards", &["BENCH_shards.json"], true, shards::run),
    entry("reads", &["BENCH_reads.json", "BENCH_cache.json"], true, reads::run),
    entry("net", &["BENCH_net.json"], true, net::run),
    entry("data", &["BENCH_data.json"], true, data::run),
    entry("micro", &["BENCH_micro.json"], true, micro::run),
];
