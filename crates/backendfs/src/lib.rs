#![warn(missing_docs)]

//! # dufs-backendfs — parallel-filesystem substrate
//!
//! The DUFS paper evaluates against, and layers on top of, two parallel
//! filesystems: **Lustre 1.8.3** (one metadata server + object storage
//! servers, distributed lock management) and **PVFS2 2.8.2**. Neither can
//! run here (kernel modules, multi-node deployment), so this crate provides
//! a faithful stand-in with two halves:
//!
//! * a **functional core** — a real in-memory POSIX-style namespace
//!   ([`namespace::Namespace`], which keeps each file's size) plus the
//!   files' bytes as stripe chunks of one [`engine::MemEngine`], so DUFS
//!   actually stores file bytes and the baselines actually run mdtest
//!   workloads against a working filesystem;
//! * a **timing model** — [`timing::PfsTimingProfile`] gives per-operation
//!   MDS service times with a contention term that grows with the number of
//!   in-flight requests, reproducing the paper's headline phenomenon: a
//!   single metadata server is fast for a few clients and *degrades* as
//!   client processes multiply (Lustre), or is uniformly slow for metadata
//!   mutation (PVFS2).
//!
//! The [`pfs::ParallelFs`] type bundles both halves; the discrete-event
//! harness charges `profile.service_time(op, load)` on the simulated MDS
//! queue for each operation, while threaded/library users call the
//! functional API directly.

pub mod attr;
pub mod engine;
pub mod error;
pub mod namespace;
pub mod pfs;
pub mod timing;

pub use attr::{FileAttr, FileKind};
pub use engine::{MemEngine, StorageEngine};
pub use error::{FsError, FsResult};
pub use namespace::{Namespace, ObjectId};
pub use pfs::{MountUsage, ParallelFs};
pub use timing::{MetaOpKind, PfsTimingProfile};
