//! Property test: group commit is invisible to the namespace.
//!
//! A batched run must finish with a replicated namespace whose *content*
//! digest equals the unbatched run's — group commit may change message
//! counts, zxid assignment and timing, but never which znodes exist or what
//! they hold. (The digest is content-only: it ignores zxids and timestamps,
//! which legitimately differ between write-path configurations.)
//!
//! `run_mdtest_report` additionally asserts all replicas of *each* run end
//! bit-identical, so this test also re-checks replication under batching.

use proptest::prelude::*;

use dufs_mdtest::scenario::{run_mdtest_report, MdtestConfig, MdtestSystem};
use dufs_mdtest::{Phase, WorkloadSpec};
use dufs_zab::ZabConfig;

fn spec(processes: usize) -> WorkloadSpec {
    WorkloadSpec {
        phases: vec![Phase::DirCreate, Phase::FileCreate, Phase::FileStat, Phase::FileRemove],
        ..WorkloadSpec::mdtest(processes, 8)
    }
}

proptest! {
    // Each case is a pair of full simulation runs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batched_namespace_digest_equals_unbatched(
        seed in 0u64..1000,
        max_batch in 2usize..33,
        flush_ms in 1u64..9,
    ) {
        let system = MdtestSystem::DufsLustre { zk_servers: 3, backends: 2 };
        let base = run_mdtest_report(&MdtestConfig::new(system, spec(8), seed));
        let batched = run_mdtest_report(&MdtestConfig {
            zab: ZabConfig::batched(max_batch, flush_ms),
            ..MdtestConfig::new(system, spec(8), seed)
        });

        prop_assert_eq!(base.namespace_nodes, batched.namespace_nodes,
            "batching must not change how many znodes exist");
        prop_assert_eq!(base.namespace_digest, batched.namespace_digest,
            "batching must not change namespace content (batch {} / flush {} ms)",
            max_batch, flush_ms);
        // The workload itself completed identically.
        let ops = |r: &dufs_mdtest::MdtestReport| -> u64 { r.phases.iter().map(|p| p.ops).sum() };
        prop_assert_eq!(ops(&base), ops(&batched));
    }
}
