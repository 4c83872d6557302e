//! Fig 11 — memory usage of the coordination service as directories are
//! created, against the DUFS client and a dummy FUSE layer.
//!
//! Paper behaviour to reproduce: ZooKeeper's resident size grows linearly
//! with the number of znodes (≈ 417 MB per million in their Java server);
//! the DUFS client and a dummy FUSE passthrough stay flat.
//!
//! We report the znode store's incrementally tracked footprint twice: the
//! native (Rust) estimate and a JVM-equivalent estimate
//! (`dufs_zkstore::memory::JVM_EQUIVALENT_FACTOR`) comparable to the
//! paper's measurement of the Java process.

use bytes::Bytes;

use dufs_backendfs::ParallelFs;
use dufs_core::fuse::DummyFuse;
use dufs_core::meta::NodeMeta;
use dufs_core::services::{LocalBackends, SoloCoord};
use dufs_core::vfs::Dufs;
use dufs_zkstore::memory::JVM_EQUIVALENT_FACTOR;
use dufs_zkstore::{CreateMode, DataTree};

use crate::{paper, Report, Scale, Value};

const MB: f64 = 1024.0 * 1024.0;

/// A tree of `count` znodes named `<prefix><i>`, each carrying `data`:
/// heap-shaped with fan-out 1000 to keep paths short like the paper's
/// benchmark (deeper nodes wrap under the 1000 top-level ones — parent
/// width is irrelevant to the memory measurement). `at_step` sees the
/// count so far and the tree after every `step` creations.
fn fill(
    prefix: char,
    data: Bytes,
    count: usize,
    step: usize,
    mut at_step: impl FnMut(usize, &DataTree),
) {
    let mut tree = DataTree::new();
    for i in 0..count {
        let path = if i < 1000 {
            format!("/{prefix}{i}")
        } else {
            format!("/{prefix}{}/{prefix}{i}", (i - 1000) / 1000 % 1000)
        };
        let zxid = i as u64 + 1;
        tree.create(&path, data.clone(), CreateMode::Persistent, 0, zxid, zxid).expect("create");
        if (i + 1) % step == 0 {
            at_step(i + 1, &tree);
        }
    }
}

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let total: usize = scale.pick(250_000, 2_500_000);
    let step = total / 5;
    let mut report =
        Report::new(format!("Fig 11: memory usage vs directories created ({total} total)"), scale);

    // Flat client-side layers measured alongside (both must stay constant).
    let dufs_client = Dufs::new(1, SoloCoord::new(), LocalBackends::lustre(2));
    let dufs_client_mb = (std::mem::size_of_val(&dufs_client) as f64) / MB;
    let dummy_mb = DummyFuse::new(ParallelFs::lustre().into_shared()).memory_bytes() as f64 / MB;

    // The coordination service's znode store, filled like the paper's
    // benchmark: a flat fan-out of directories under a handful of parents,
    // each znode carrying a DUFS directory data field.
    report.table(
        "",
        vec![
            "directories",
            "store (native MB)",
            "JVM-equivalent MB",
            "DUFS client MB",
            "dummy FUSE MB",
        ],
    );
    let mut checkpoints = Vec::new();
    fill('d', NodeMeta::dir(0o755).encode(), total, step, |created, tree| {
        let native_mb = tree.memory_bytes() as f64 / MB;
        checkpoints.push((created, native_mb));
        report.row(vec![
            created.into(),
            Value::float(native_mb, 1),
            Value::float(native_mb * JVM_EQUIVALENT_FACTOR, 1),
            Value::float(dufs_client_mb, 4),
            Value::float(dummy_mb, 6),
        ]);
    });

    // The paper's aside: "Znode data size is similar for file or directory"
    // — verify with file znodes (data field carries the 128-bit FID).
    let mut file_bytes = 0;
    let fdata = NodeMeta::file(dufs_core::Fid::new(7, 7), 0o644).encode();
    fill('f', fdata, step, step, |_, tree| file_bytes = tree.memory_bytes());
    let (n1, m1) = checkpoints[0];
    let (n5, m5) = checkpoints[4];
    let dir_per_node = m5 * MB / n5 as f64;
    let file_per_node = file_bytes as f64 / step as f64;
    report.note("");
    report.check(
        "per-znode bytes similar for file and directory (paper: 'Znode data size is similar')",
        (file_per_node / dir_per_node - 1.0).abs() < 0.25,
        format!("directory {dir_per_node:.0} B vs file {file_per_node:.0} B"),
    );
    let slope_ratio = (m5 / n5 as f64) / (m1 / n1 as f64);
    report.check(
        "store memory grows linearly (slope ratio ~ 1.0)",
        (0.8..1.2).contains(&slope_ratio),
        format!("{slope_ratio:.2}"),
    );
    let jvm_per_million = m5 * JVM_EQUIVALENT_FACTOR / (n5 as f64 / 1e6);
    report.note(format!(
        "JVM-equivalent footprint: {:.0} MB per million znodes (paper: {:.0} MB) — factor {:.2}\n\
         DUFS client and dummy FUSE stay flat at {:.4} MB / {:.6} MB regardless of namespace \
         size (paper: 'bounded and similar to a normal FUSE based file system')",
        jvm_per_million,
        paper::ZK_MB_PER_MILLION,
        jvm_per_million / paper::ZK_MB_PER_MILLION,
        dufs_client_mb,
        dummy_mb
    ));
    report
}
