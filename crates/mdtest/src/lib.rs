#![warn(missing_docs)]

//! # dufs-mdtest — workload generator and simulation harness
//!
//! Reproduces the paper's evaluation methodology: the mdtest metadata
//! benchmark (ref. 13 of the paper) run against (a) raw ZooKeeper-style coordination
//! (paper §V-A/B), (b) DUFS over Lustre/PVFS2 back-ends, and (c) the
//! native filesystems themselves ("Basic Lustre", "Basic PVFS") — all
//! inside the deterministic discrete-event simulator from `dufs-simnet`.
//!
//! The simulated testbed mirrors §V's: 8 client nodes (8 cores each), each
//! co-hosting a coordination server and a pack of closed-loop client
//! processes, 1 GigE between nodes, and per-mount metadata servers with
//! Lustre/PVFS2 timing profiles. Calibration constants live in [`costs`]
//! with their derivations.
//!
//! High-level entry points in [`scenario`]:
//! * [`scenario::run_zk_raw`] — Fig 7 (raw coordination throughput);
//! * [`scenario::run_mdtest`] — Figs 8, 9, 10 (DUFS vs Basic Lustre/PVFS2
//!   across client counts, ensemble sizes and back-end counts).

pub mod clients;
pub mod controller;
pub mod costs;
pub mod data;
pub mod live;
pub mod msg;
pub mod scenario;
pub mod scratch;
pub mod servers;
pub mod workload;

pub use live::{run_live, LivePhase};
pub use scenario::{
    run_mdtest, run_mdtest_report, run_zk_raw, CoordCrash, CoordOutage, MdtestConfig, MdtestReport,
    MdtestSystem, PhaseResult, RawOp, RawRunResult, RawTuning,
};
pub use scratch::ScratchDir;
pub use workload::{Phase, WorkloadSpec};
