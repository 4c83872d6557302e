//! Property tests for the workload generator: structural invariants every
//! simulated run depends on.

use proptest::prelude::*;
use std::collections::HashSet;

use dufs_mdtest::workload::{NativeOp, Phase, WorkloadSpec};

fn spec(processes: usize, fanout: usize, dirs: usize, files: usize, shared: bool) -> WorkloadSpec {
    WorkloadSpec {
        fanout,
        files_per_proc: files,
        shared_dir: shared,
        ..WorkloadSpec::mdtest(processes, dirs)
    }
}

proptest! {
    /// Directory creation order is executable: every directory's parent is
    /// either the process root or a directory created earlier.
    #[test]
    fn dir_creation_order_is_executable(
        fanout in 2usize..12,
        dirs in 1usize..120,
        proc in 0usize..8,
    ) {
        let s = spec(8, fanout, dirs, 0, false);
        let mut existing: HashSet<String> = HashSet::new();
        existing.insert(WorkloadSpec::proc_root(proc));
        for p in s.dir_paths(proc) {
            let parent = p[..p.rfind('/').unwrap()].to_string();
            prop_assert!(existing.contains(&parent), "{p} created before its parent");
            existing.insert(p);
        }
    }

    /// Removal is the exact reverse of creation, so it is also executable
    /// (children before parents).
    #[test]
    fn removal_reverses_creation(fanout in 2usize..12, dirs in 1usize..80) {
        let s = spec(4, fanout, dirs, 0, false);
        let creates: Vec<String> = s
            .ops_for(1, Phase::DirCreate)
            .into_iter()
            .map(|o| match o {
                NativeOp::Mkdir(p) => p,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let mut removes: Vec<String> = s
            .ops_for(1, Phase::DirRemove)
            .into_iter()
            .map(|o| match o {
                NativeOp::Rmdir(p) => p,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        removes.reverse();
        prop_assert_eq!(creates, removes);
    }

    /// File paths are unique within a process and disjoint across
    /// processes, in both placement modes.
    #[test]
    fn file_paths_unique_and_disjoint(
        procs in 2usize..6,
        dirs in 1usize..30,
        files in 1usize..60,
        shared in any::<bool>(),
    ) {
        let s = spec(procs, 10, dirs, files, shared);
        let mut all: HashSet<String> = HashSet::new();
        for p in 0..procs {
            let mine = s.file_paths(p);
            prop_assert_eq!(mine.len(), files);
            for f in mine {
                prop_assert!(all.insert(f.clone()), "duplicate file path {f}");
            }
        }
    }

    /// Shared mode puts every file directly under /mdtest; unique mode puts
    /// every file strictly inside the owner's subtree.
    #[test]
    fn placement_mode_controls_parents(
        procs in 1usize..5,
        files in 1usize..40,
        shared in any::<bool>(),
    ) {
        let s = spec(procs, 10, 12, files, shared);
        for p in 0..procs {
            for f in s.file_paths(p) {
                if shared {
                    let parent = &f[..f.rfind('/').unwrap()];
                    prop_assert_eq!(parent, "/mdtest");
                } else {
                    let root = WorkloadSpec::proc_root(p);
                    prop_assert!(f.starts_with(&format!("{root}/")), "{f} outside {root}");
                }
            }
        }
    }

    /// Every phase produces exactly the configured number of operations.
    #[test]
    fn phase_op_counts(dirs in 1usize..40, files in 1usize..40) {
        let s = spec(3, 10, dirs, files, false);
        for phase in Phase::ALL {
            let expect = if matches!(phase, Phase::DirCreate | Phase::DirStat | Phase::DirRemove) {
                dirs
            } else {
                files
            };
            prop_assert_eq!(s.ops_for(0, phase).len(), expect, "{:?}", phase);
        }
    }
}
