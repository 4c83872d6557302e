//! Ablation — the paper's future-work claim (§VII): replacing the
//! `MD5(fid) mod N` mapping with consistent hashing "will allow to
//! dynamically add and remove back-end storages while ensuring that the
//! amount of data to relocate stays bounded".
//!
//! Measures, for both mapping functions: load balance across back-ends,
//! and the fraction of FIDs whose placement changes when a back-end is
//! added or removed.

use dufs_core::fid::FidGenerator;
use dufs_core::mapping::{BackendMapper, ConsistentHashRing, Md5Mapping};
use dufs_core::Fid;

use crate::{Report, Scale, Value};

fn sample_fids(n: usize) -> Vec<Fid> {
    // FIDs from several client instances, like a live system.
    let mut gens: Vec<FidGenerator> = (0..8).map(|c| FidGenerator::new(1000 + c)).collect();
    (0..n).map(|i| gens[i % 8].next_fid()).collect()
}

fn balance(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    let ideal = total as f64 / counts.len() as f64;
    counts.iter().map(|&c| (c as f64 - ideal).abs() / ideal).fold(0.0f64, f64::max)
}

fn moved(fids: &[Fid], a: &dyn BackendMapper, b: &dyn BackendMapper) -> Value {
    let m = fids.iter().filter(|f| a.backend_of(**f) != b.backend_of(**f)).count();
    Value::unit(m as f64 / fids.len() as f64 * 100.0, 1, "%")
}

/// Run the experiment (one size: the scale only labels the report).
pub fn run(scale: Scale) -> Report {
    let fids = sample_fids(100_000);
    let mut report = Report::new(format!("Mapping-function ablation ({} FIDs)", fids.len()), scale);

    // --- load balance at N=4
    report.table("", vec!["mapping", "per-backend counts (N=4)", "max imbalance"]);
    let mappers: [(&str, &dyn BackendMapper); 2] =
        [("MD5 mod N", &Md5Mapping::new(4)), ("consistent hash", &ConsistentHashRing::new(4))];
    for (name, mapper) in mappers {
        let mut counts = vec![0usize; 4];
        for f in &fids {
            counts[mapper.backend_of(*f)] += 1;
        }
        report.row(vec![
            name.into(),
            format!("{counts:?}").into(),
            Value::unit(balance(&counts) * 100.0, 1, "%"),
        ]);
    }

    // --- relocation on membership change
    report.table(
        "relocated FID fraction on membership change (ideal: 1/N' for growth):",
        vec!["transition", "MD5 mod N", "consistent hash", "ideal"],
    );
    for n in [2usize, 4, 8] {
        let ring_a = ConsistentHashRing::new(n);
        let mut ring_b = ring_a.clone();
        ring_b.add_backend(n);
        report.row(vec![
            format!("{n} -> {} backends", n + 1).into(),
            moved(&fids, &Md5Mapping::new(n), &Md5Mapping::new(n + 1)),
            moved(&fids, &ring_a, &ring_b),
            Value::unit(100.0 / (n + 1) as f64, 1, "%"),
        ]);
    }
    // Removal.
    let ring_a = ConsistentHashRing::new(4);
    let mut ring_b = ring_a.clone();
    ring_b.remove_backend(2);
    report.row(vec![
        "4 -> 3 backends".into(),
        moved(&fids, &Md5Mapping::new(4), &Md5Mapping::new(3)),
        moved(&fids, &ring_a, &ring_b),
        Value::unit(25.0, 1, "%"),
    ]);

    report.note(
        "\nconclusion: mod-N relocates most of the namespace on every membership change;\n\
         the ring keeps relocation near the 1/N bound — confirming the paper's future-work plan.",
    );
    report
}
