//! Property tests over stripe-layout edge cases: misaligned offsets,
//! sparse writes, zero-length files, truncate-then-read — every engine,
//! driven through the stripe functions `write_at`/`read_at`/`truncate_at`,
//! checked for round-trip equality against a flat `Vec<u8>` model of the
//! file, and the durable engine additionally checked to survive reopen.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dufs_backendfs::engine::{read_at, truncate_at, write_at};
use dufs_backendfs::{MemEngine, StorageEngine};
use dufs_store::{FileEngine, FsyncPolicy};
use proptest::prelude::*;

/// One step of a data-path history.
#[derive(Debug, Clone)]
enum Op {
    Write { offset: u64, data: Vec<u8> },
    Truncate { new_size: u64 },
    Read { offset: u64, len: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shim's `prop_oneof!` is unweighted; repeating the write arm
    // biases histories toward writes.
    prop_oneof![
        (0u64..200, proptest::collection::vec(any::<u8>(), 0..90))
            .prop_map(|(offset, data)| Op::Write { offset, data }),
        (0u64..200, proptest::collection::vec(any::<u8>(), 0..90))
            .prop_map(|(offset, data)| Op::Write { offset, data }),
        (0u64..220).prop_map(|new_size| Op::Truncate { new_size }),
        (0u64..220, 0usize..120).prop_map(|(offset, len)| Op::Read { offset, len }),
    ]
}

/// Flat reference model: the file is one `Vec<u8>`; `size` tracks the
/// logical length (truncate-up holes included).
#[derive(Default)]
struct Model {
    bytes: Vec<u8>,
    size: u64,
}

impl Model {
    fn write(&mut self, offset: u64, data: &[u8]) {
        let end = offset as usize + data.len();
        if self.bytes.len() < end {
            self.bytes.resize(end, 0);
        }
        self.bytes[offset as usize..end].copy_from_slice(data);
        self.size = self.size.max(end as u64);
    }

    fn truncate(&mut self, new_size: u64) {
        self.bytes.truncate(new_size as usize);
        self.size = new_size;
    }

    /// Read as the store sees it: zero-fill everything, the store only
    /// materializes written bytes.
    fn read(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let off = offset as usize;
        if off < self.bytes.len() {
            let n = (self.bytes.len() - off).min(len);
            out[..n].copy_from_slice(&self.bytes[off..off + n]);
        }
        out
    }
}

/// The written extent of `obj`: one past the last stored byte.
fn extent(e: &impl StorageEngine, ss: usize, obj: u128) -> u64 {
    e.last_stripe(obj).map_or(0, |(s, len)| s * ss as u64 + len as u64)
}

/// Drive the same history through an engine and the model.
fn check_history(e: &mut impl StorageEngine, ss: usize, ops: &[Op], obj: u128) {
    let mut model = Model::default();
    for op in ops {
        match op {
            Op::Write { offset, data } => {
                write_at(e, ss, obj, *offset, data).unwrap();
                model.write(*offset, data);
            }
            Op::Truncate { new_size } => {
                truncate_at(e, ss, obj, *new_size).unwrap();
                model.truncate(*new_size);
            }
            Op::Read { offset, len } => {
                let mut got = vec![0u8; *len];
                read_at(e, ss, obj, *offset, &mut got).unwrap();
                assert_eq!(got, model.read(*offset, *len), "read mismatch at {offset}+{len}");
            }
        }
    }
    // Final full-file check. The written extent may exceed the model size
    // only via truncate-up (which stores nothing), never the other way.
    let written = extent(e, ss, obj);
    assert!(written <= model.bytes.len() as u64, "extent {written} > model {}", model.bytes.len());
    let mut full = vec![0u8; model.bytes.len()];
    read_at(e, ss, obj, 0, &mut full).unwrap();
    assert_eq!(full, model.bytes);
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn file_dir() -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("dufs-store-prop-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mem_engine_matches_flat_model(
        ops in proptest::collection::vec(op_strategy(), 0..40),
        stripe in 1usize..33,
    ) {
        check_history(&mut MemEngine::new(), stripe, &ops, 0xF1D0);
    }

    #[test]
    fn file_engine_matches_flat_model_and_survives_reopen(
        ops in proptest::collection::vec(op_strategy(), 0..24),
        stripe in 1usize..33,
    ) {
        let dir = file_dir();
        let mut e = FileEngine::open(&dir, FsyncPolicy::None).unwrap();
        check_history(&mut e, stripe, &ops, 0xF1D0);
        e.sync().unwrap();

        // Reopen from disk: the recovered index must read back the
        // identical byte image.
        let written = extent(&e, stripe, 0xF1D0);
        let mut before = vec![0u8; written as usize];
        read_at(&mut e, stripe, 0xF1D0, 0, &mut before).unwrap();
        drop(e);

        let mut reopened = FileEngine::open(&dir, FsyncPolicy::None).unwrap();
        prop_assert_eq!(extent(&reopened, stripe, 0xF1D0), written);
        let mut after = vec![0u8; written as usize];
        read_at(&mut reopened, stripe, 0xF1D0, 0, &mut after).unwrap();
        prop_assert_eq!(before, after);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engines_agree_with_each_other(
        ops in proptest::collection::vec(op_strategy(), 0..24),
        stripe in 1usize..33,
    ) {
        let dir = file_dir();
        let mut durable = FileEngine::open(&dir, FsyncPolicy::None).unwrap();
        let mut mem = MemEngine::new();
        let obj = 0xABu128;
        for op in &ops {
            match op {
                Op::Write { offset, data } => {
                    write_at(&mut durable, stripe, obj, *offset, data).unwrap();
                    write_at(&mut mem, stripe, obj, *offset, data).unwrap();
                }
                Op::Truncate { new_size } => {
                    truncate_at(&mut durable, stripe, obj, *new_size).unwrap();
                    truncate_at(&mut mem, stripe, obj, *new_size).unwrap();
                }
                Op::Read { offset, len } => {
                    let mut a = vec![0u8; *len];
                    let mut b = vec![0u8; *len];
                    read_at(&mut durable, stripe, obj, *offset, &mut a).unwrap();
                    read_at(&mut mem, stripe, obj, *offset, &mut b).unwrap();
                    prop_assert_eq!(a, b);
                }
            }
        }
        prop_assert_eq!(durable.last_stripe(obj), mem.last_stripe(obj));
        prop_assert_eq!(durable.bytes_stored(), mem.bytes_stored());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn zero_length_file_round_trips() {
    let mut m = MemEngine::new();
    write_at(&mut m, 8, 1, 0, b"").unwrap();
    assert_eq!(extent(&m, 8, 1), 0);
    let mut empty: Vec<u8> = Vec::new();
    read_at(&mut m, 8, 1, 0, &mut empty).unwrap();

    let dir = std::env::temp_dir().join(format!("dufs-store-zero-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut e = FileEngine::open(&dir, FsyncPolicy::None).unwrap();
    e.write(1, 0, 0, b"").unwrap();
    assert_eq!(e.last_stripe(1), Some((0, 0)));
    let mut buf = [0u8; 4];
    assert_eq!(e.read(1, 0, 0, &mut buf).unwrap(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
