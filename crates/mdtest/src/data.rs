//! Mixed metadata+data workloads: the data half of mdtest.
//!
//! With `--data <bytes>`, every file create is followed by a striped write
//! of deterministic, path-derived contents through a
//! [`dufs_store::StoreClient`], and every file stat by a
//! read-back verify of the per-FID CRC — so the run exercises the full
//! DUFS pipeline: metadata op → FID → `MD5(fid) mod N` placement → striped
//! data I/O. Because both the FID and the contents are pure functions of
//! the path, a simulated run and live runs on either transport must
//! produce the **same order-independent contents digest**; `scripts/ci.sh`
//! compares the printed `data digest` lines across all three paths.
//!
//! The optional Zipf popularity knob skews which files get re-read during
//! the stat phase, turning uniform verification traffic into hot-object
//! contention (a few FIDs absorb most reads — the
//! hostile-scenario axis ROADMAP asks for).

use dufs_core::hash::md5;
use dufs_core::Fid;
use dufs_store::{crc32, StoreClient};

use crate::workload::WorkloadSpec;

/// Data-path knobs for a mixed run.
#[derive(Debug, Clone, Copy)]
pub struct DataSpec {
    /// Bytes written per created file.
    pub bytes: usize,
    /// Stripe size for the striped store.
    pub stripe: usize,
    /// Zipf skew for stat-phase re-reads: `None`/`Some(0.0)` is uniform,
    /// larger theta concentrates reads on a few hot files.
    pub zipf: Option<f64>,
}

/// The FID naming a path's contents: the md5 of the path, which is both
/// deterministic across runs/transports and uniformly spread across
/// targets by the `MD5(fid) mod N` mapping.
pub fn fid_for_path(path: &str) -> Fid {
    let d = md5(path.as_bytes());
    Fid(u128::from_be_bytes(d))
}

/// Deterministic file contents: a splitmix64 stream seeded by the FID.
pub fn contents_for(path: &str, nbytes: usize) -> Vec<u8> {
    let fid = fid_for_path(path);
    let mut state = fid.0 as u64 ^ (fid.0 >> 64) as u64;
    (0..nbytes)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// One file's contribution to the contents digest. XOR-mixing the FID in
/// makes the digest sensitive to *which* file holds *which* bytes; the
/// outer wrapping sum makes it order-independent across processes.
pub fn file_digest(fid: Fid, data: &[u8]) -> u64 {
    (fid.0 as u64) ^ ((fid.0 >> 64) as u64) ^ ((crc32(data) as u64) << 16)
}

/// The digest a correct run must produce, computed purely from the spec —
/// no store involved. Every runner's read-back digest is compared to this.
pub fn expected_data_digest(spec: &WorkloadSpec, data: &DataSpec) -> u64 {
    let mut sum = 0u64;
    for p in 0..spec.processes {
        for path in spec.file_paths(p) {
            sum = sum
                .wrapping_add(file_digest(fid_for_path(&path), &contents_for(&path, data.bytes)));
        }
    }
    sum
}

/// Zipf(theta) sampler over ranks `0..n` with a precomputed CDF.
/// `theta = 0` is uniform; `theta` around 0.8–1.2 gives realistic
/// file-popularity skew. Deterministic: seeded splitmix64, no OS entropy.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    state: u64,
}

impl Zipf {
    /// A sampler over `n` ranks with skew `theta`, seeded deterministically.
    pub fn new(n: usize, theta: f64, seed: u64) -> Self {
        assert!(n >= 1, "need at least one rank");
        assert!(theta >= 0.0, "theta must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf, state: seed ^ 0x5DEE_CE66_D1CE_4E5B }
    }

    fn next_f64(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Draw a rank in `0..n`; rank 0 is the hottest.
    pub fn sample(&mut self) -> usize {
        let u = self.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Write every file's contents through `store` (create side of a mixed
/// run), reading nothing back. Returns the number of files written.
pub fn write_all_files(
    store: &mut StoreClient,
    spec: &WorkloadSpec,
    data: &DataSpec,
    proc: usize,
) -> usize {
    let paths = spec.file_paths(proc);
    for path in &paths {
        let contents = contents_for(path, data.bytes);
        store.write(fid_for_path(path), 0, &contents).expect("striped write");
    }
    paths.len()
}

/// Read back and CRC-verify one file; panics on any mismatch (lost or
/// corrupt data is a harness failure, not a statistic).
pub fn verify_file(store: &mut StoreClient, path: &str, nbytes: usize) -> u64 {
    let fid = fid_for_path(path);
    let extent = store.written_extent(fid).expect("stat") as usize;
    assert_eq!(extent, nbytes, "{path}: written extent {extent}, want {nbytes}");
    let mut back = vec![0u8; extent];
    store.read_into(fid, 0, &mut back).expect("striped read");
    let expect = contents_for(path, nbytes);
    assert_eq!(crc32(&back), crc32(&expect), "{path}: contents CRC mismatch after read-back");
    file_digest(fid, &back)
}

/// Read every file of every process back through `store` and fold the
/// order-independent contents digest — the value printed as
/// `data digest 0x…` and compared across sim/thread/TCP runs.
pub fn read_back_digest(store: &mut StoreClient, spec: &WorkloadSpec, data: &DataSpec) -> u64 {
    let mut sum = 0u64;
    for p in 0..spec.processes {
        for path in spec.file_paths(p) {
            sum = sum.wrapping_add(verify_file(store, &path, data.bytes));
        }
    }
    sum
}

/// [`crate::live::run_live`] with the data path attached: each process
/// thread owns a metadata session **and** a [`StoreClient`], every
/// `creat` is followed by a striped write of the file's contents, and
/// every file stat by a read-back CRC verify. When `data.zipf` is set,
/// each file stat additionally re-reads a Zipf-sampled file from the
/// process's own set — hot-object contention on the data servers.
///
/// Returns the per-phase wall results plus the read-back contents digest
/// (computed through `store_for(spec.processes)`, a dedicated verify
/// client), which callers compare against [`expected_data_digest`].
pub fn run_live_data<C, F, S, G>(
    spec: &WorkloadSpec,
    data: &DataSpec,
    client_for: F,
    store_for: S,
    after_phase: G,
    strict_stats: bool,
) -> (Vec<crate::live::LivePhase>, u64)
where
    C: dufs_coord::CoordService + Send,
    F: Fn(usize) -> C,
    S: Fn(usize) -> StoreClient,
    G: FnMut(crate::workload::Phase),
{
    use crate::live;
    use crate::workload::NativeOp;

    struct ProcState<C> {
        zk: C,
        store: StoreClient,
        files: Vec<String>,
        zipf: Option<Zipf>,
    }

    let data = *data;
    let mut procs: Vec<ProcState<C>> = (0..spec.processes)
        .map(|p| ProcState {
            zk: client_for(p),
            store: store_for(p),
            files: spec.file_paths(p),
            zipf: data.zipf.map(|theta| Zipf::new(spec.files_per_proc, theta, p as u64 + 1)),
        })
        .collect();
    for (p, st) in procs.iter_mut().enumerate() {
        live::setup(spec, p, &mut st.zk);
    }

    let exec = |st: &mut ProcState<C>, op: &NativeOp| {
        live::exec(&mut st.zk, op, strict_stats);
        match op {
            // The data half of the create: a striped, acked write of the
            // file's contents.
            NativeOp::Create(path) => {
                let contents = contents_for(path, data.bytes);
                st.store.write(fid_for_path(path), 0, &contents).expect("striped write");
            }
            NativeOp::Unlink(path) => {
                st.store.delete(fid_for_path(path)).expect("data delete");
            }
            // The data half of the stat: read back and verify this
            // process's own file, plus a popularity-skewed extra read when
            // the Zipf knob is on.
            NativeOp::StatFile(path) => {
                verify_file(&mut st.store, path, data.bytes);
                if let Some(z) = st.zipf.as_mut() {
                    let hot = st.files[z.sample()].clone();
                    verify_file(&mut st.store, &hot, data.bytes);
                }
            }
            NativeOp::Mkdir(_) | NativeOp::Rmdir(_) | NativeOp::StatDir(_) => {}
        }
    };
    let settle = |st: &mut ProcState<C>| {
        live::phase_sync(&mut st.zk);
        st.store.sync().expect("data sync");
    };
    let out = live::run_phases(spec, &mut procs, exec, settle, after_phase);
    drop(procs);

    // Whole-namespace read-back through a dedicated verify client.
    let mut verify = store_for(spec.processes);
    let digest = read_back_digest(&mut verify, spec, &data);
    (out, digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Phase, WorkloadSpec};
    use dufs_backendfs::MemEngine;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            fanout: 4,
            files_per_proc: 5,
            phases: vec![Phase::FileCreate, Phase::FileStat],
            ..WorkloadSpec::mdtest(3, 2)
        }
    }

    #[test]
    fn fids_and_contents_are_deterministic() {
        assert_eq!(fid_for_path("/mdtest/p0/f0"), fid_for_path("/mdtest/p0/f0"));
        assert_ne!(fid_for_path("/a"), fid_for_path("/b"));
        assert_eq!(contents_for("/a", 64), contents_for("/a", 64));
        assert_ne!(contents_for("/a", 64), contents_for("/b", 64));
    }

    #[test]
    fn round_trip_digest_matches_expected() {
        let spec = small_spec();
        let data = DataSpec { bytes: 100, stripe: 16, zipf: None };
        let engines: Vec<Arc<Mutex<MemEngine>>> =
            (0..4).map(|_| Arc::new(Mutex::new(MemEngine::new()))).collect();
        let mut store = StoreClient::local(&engines, data.stripe);
        for p in 0..spec.processes {
            write_all_files(&mut store, &spec, &data, p);
        }
        let got = read_back_digest(&mut store, &spec, &data);
        assert_eq!(got, expected_data_digest(&spec, &data));
    }

    #[test]
    fn digest_is_order_independent_but_content_sensitive() {
        let spec = small_spec();
        let a = DataSpec { bytes: 64, stripe: 8, zipf: None };
        let b = DataSpec { bytes: 65, stripe: 8, zipf: None };
        assert_ne!(expected_data_digest(&spec, &a), expected_data_digest(&spec, &b));
        // Stripe size must NOT affect the digest (it's a layout knob).
        let engines: Vec<Arc<Mutex<MemEngine>>> =
            (0..2).map(|_| Arc::new(Mutex::new(MemEngine::new()))).collect();
        let mut store = StoreClient::local(&engines, 32);
        for p in 0..spec.processes {
            write_all_files(&mut store, &spec, &a, p);
        }
        assert_eq!(read_back_digest(&mut store, &spec, &a), expected_data_digest(&spec, &a));
    }

    #[test]
    fn zipf_skews_and_uniform_spreads() {
        let n = 50;
        let mut hot = Zipf::new(n, 1.2, 7);
        let mut uni = Zipf::new(n, 0.0, 7);
        let draws = 20_000;
        let mut hot_counts = vec![0usize; n];
        let mut uni_counts = vec![0usize; n];
        for _ in 0..draws {
            hot_counts[hot.sample()] += 1;
            uni_counts[uni.sample()] += 1;
        }
        // Rank 0 dominates under skew, not under uniform.
        assert!(hot_counts[0] > draws / 10, "zipf(1.2) rank0 got {} of {draws}", hot_counts[0]);
        assert!(uni_counts[0] < draws / 10, "uniform rank0 got {} of {draws}", uni_counts[0]);
        // Every rank is reachable under uniform.
        assert!(uni_counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn verify_file_catches_truncation() {
        let spec = small_spec();
        let data = DataSpec { bytes: 40, stripe: 8, zipf: None };
        let engines: Vec<Arc<Mutex<MemEngine>>> =
            (0..2).map(|_| Arc::new(Mutex::new(MemEngine::new()))).collect();
        let mut store = StoreClient::local(&engines, data.stripe);
        let path = spec.file_paths(0)[0].clone();
        let contents = contents_for(&path, data.bytes);
        // Store one byte short: the verify must panic on extent mismatch.
        store.write(fid_for_path(&path), 0, &contents[..39]).unwrap();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            verify_file(&mut store, &path, data.bytes)
        }));
        assert!(res.is_err(), "short file must fail verification");
    }
}
