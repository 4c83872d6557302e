//! Mixed metadata+data workloads: the data half of mdtest.
//!
//! With `--data <bytes>`, the live driver ([`crate::live::run_live`]) gives
//! every process a [`dufs_store::StoreClient`] beside its `Dufs` client:
//! every file create is followed by a striped write of deterministic,
//! path-derived contents under the FID `Dufs::create` minted, and every
//! file stat by a read-back verify under the FID the namespace reports —
//! the full DUFS pipeline: metadata op → FID → `MD5(fid) mod N` placement →
//! striped data I/O. The contents are a pure function of the path, so every
//! run must fold the **same order-independent contents digest**, the one
//! [`expected_data_digest`] computes from the spec alone.
//!
//! The optional Zipf popularity knob skews which files get re-read during
//! the stat phase, turning uniform verification traffic into hot-object
//! contention (a few FIDs absorb most reads — the
//! hostile-scenario axis ROADMAP asks for).

use std::sync::Arc;

use dufs_backendfs::MemEngine;
use dufs_core::hash::md5;
use dufs_core::Fid;
use dufs_store::{crc32, FileEngine, FsyncPolicy, StoreClient, StoreServer};
use parking_lot::Mutex;

use crate::workload::WorkloadSpec;
use crate::ScratchDir;

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

/// 64 bits of `md5(path)`: seeds a file's contents and names it in the
/// contents digest, independently of whichever FID the run minted for it.
fn path_hash(path: &str) -> u64 {
    let d = u128::from_be_bytes(md5(path.as_bytes()));
    d as u64 ^ (d >> 64) as u64
}

/// The next output of the splitmix64 stream at `state`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic file contents: a splitmix64 stream seeded by the path.
pub fn contents_for(path: &str, nbytes: usize) -> Vec<u8> {
    let mut state = path_hash(path);
    (0..nbytes).map(|_| splitmix64(&mut state) as u8).collect()
}

/// One file's contribution to the contents digest. XOR-mixing the path
/// hash in makes the digest sensitive to *which* file holds *which* bytes;
/// the outer wrapping sum makes it order-independent across processes.
pub fn file_digest(path: &str, data: &[u8]) -> u64 {
    path_hash(path) ^ ((crc32(data) as u64) << 16)
}

/// The digest a correct run must produce, computed purely from the spec —
/// no store involved. A run that stats every file once folds exactly this.
pub fn expected_data_digest(spec: &WorkloadSpec, data: &DataSpec) -> u64 {
    let mut sum = 0u64;
    for p in 0..spec.processes {
        for path in spec.file_paths(p) {
            sum = sum.wrapping_add(file_digest(&path, &contents_for(&path, data.bytes)));
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

    /// Draw a rank in `0..n`; rank 0 is the hottest.
    pub fn sample(&mut self) -> usize {
        let u = (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Read `path`'s contents back from under `fid` and CRC-verify them;
/// panics on any mismatch (lost or corrupt data is a harness failure, not a
/// statistic). Returns the file's [`file_digest`].
pub fn verify_file(store: &mut StoreClient, fid: Fid, path: &str, nbytes: usize) -> u64 {
    let extent = store.written_extent(fid).expect("stat") as usize;
    assert_eq!(extent, nbytes, "{path}: written extent {extent}, want {nbytes}");
    let mut back = vec![0u8; extent];
    store.read_into(fid, 0, &mut back).expect("striped read");
    let expect = contents_for(path, nbytes);
    assert_eq!(crc32(&back), crc32(&expect), "{path}: contents CRC mismatch after read-back");
    file_digest(path, &back)
}

/// The data targets of a mixed run: shared in-memory engines (every process
/// routes `MD5(fid) mod N` to the same engines, like threads sharing one
/// data-server fleet), or real [`StoreServer`]s on loopback over durable
/// [`FileEngine`] directories with group fsync — the full
/// frame/demux/group-commit path under mixed load.
pub enum DataTargets {
    /// In-process engines.
    Memory(Vec<Arc<Mutex<MemEngine>>>),
    /// Store servers, then the scratch directory their targets live in: a
    /// drop stops the servers before it removes the directory.
    Servers(Vec<StoreServer>, ScratchDir),
}

impl DataTargets {
    /// Start `n` targets: store servers when `servers`, else in memory.
    pub fn start(servers: bool, n: usize) -> DataTargets {
        if !servers {
            return DataTargets::Memory(
                (0..n).map(|_| Arc::new(Mutex::new(MemEngine::new()))).collect(),
            );
        }
        let dir = ScratchDir::new("mdtest-store");
        let servers = dir
            .targets(n)
            .iter()
            .enumerate()
            .map(|(t, dir)| {
                let engine = FileEngine::open(dir, FsyncPolicy::Group).expect("open target dir");
                let addr = "127.0.0.1:0".parse().expect("loopback address");
                StoreServer::spawn(addr, engine, FsyncPolicy::Group, t as u64 + 1)
                    .expect("spawn store server")
            })
            .collect();
        DataTargets::Servers(servers, dir)
    }

    /// Process `p`'s striped client.
    pub fn client(&self, stripe: usize, p: usize) -> StoreClient {
        match self {
            DataTargets::Memory(engines) => StoreClient::local(engines, stripe),
            DataTargets::Servers(servers, _) => {
                let addrs: Vec<_> = servers.iter().map(StoreServer::addr).collect();
                StoreClient::tcp(&addrs, stripe, 1000 + p as u64).expect("store session")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Phase, WorkloadSpec};

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            fanout: 4,
            files_per_proc: 5,
            phases: vec![Phase::FileCreate, Phase::FileStat],
            ..WorkloadSpec::mdtest(3, 2)
        }
    }

    /// Write every file of `spec` under a FID of its own (as `Dufs::create`
    /// would mint one) over `targets` in-memory targets, then fold the
    /// read-back digest.
    fn round_trip(spec: &WorkloadSpec, data: &DataSpec, targets: usize) -> u64 {
        let mut store = DataTargets::start(false, targets).client(data.stripe, 0);
        let mut sum = 0u64;
        for p in 0..spec.processes {
            let fids: Vec<Fid> =
                (0..spec.files_per_proc as u64).map(|i| Fid::new(p as u64 + 1, i)).collect();
            for (path, &fid) in spec.file_paths(p).iter().zip(&fids) {
                store.write(fid, 0, &contents_for(path, data.bytes)).unwrap();
            }
            for (path, &fid) in spec.file_paths(p).iter().zip(&fids) {
                sum = sum.wrapping_add(verify_file(&mut store, fid, path, data.bytes));
            }
        }
        sum
    }

    #[test]
    fn contents_are_deterministic_per_path() {
        assert_eq!(contents_for("/a", 64), contents_for("/a", 64));
        assert_ne!(contents_for("/a", 64), contents_for("/b", 64));
        assert_ne!(file_digest("/a", b"x"), file_digest("/b", b"x"));
    }

    #[test]
    fn digest_round_trips_and_is_content_sensitive_but_layout_independent() {
        let spec = small_spec();
        let a = DataSpec { bytes: 64, stripe: 8, zipf: None };
        let b = DataSpec { bytes: 65, stripe: 8, zipf: None };
        assert_ne!(expected_data_digest(&spec, &a), expected_data_digest(&spec, &b));
        // Stripe size and target count are layout knobs: not in the digest.
        for (stripe, targets) in [(8, 4), (32, 2)] {
            let laid_out = DataSpec { stripe, ..a };
            assert_eq!(round_trip(&spec, &laid_out, targets), expected_data_digest(&spec, &a));
        }
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
        let mut store = DataTargets::start(false, 2).client(data.stripe, 0);
        let path = spec.file_paths(0)[0].clone();
        let contents = contents_for(&path, data.bytes);
        // Store one byte short: the verify must panic on extent mismatch.
        let fid = Fid::new(1, 1);
        store.write(fid, 0, &contents[..39]).unwrap();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            verify_file(&mut store, fid, &path, data.bytes)
        }));
        assert!(res.is_err(), "short file must fail verification");
    }
}
