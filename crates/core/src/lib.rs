#![warn(missing_docs)]

//! # dufs-core — the Distributed Union FileSystem (DUFS)
//!
//! The paper's primary contribution: a client-side metadata service layer
//! that merges multiple parallel-filesystem mounts into one POSIX namespace,
//! with all namespace metadata held in a replicated coordination service
//! and file contents placed by a deterministic FID mapping (paper §IV).
//!
//! ## The pieces (paper section in parentheses)
//!
//! * [`fid`] — 128-bit File Identifiers: 64-bit client id ‖ 64-bit creation
//!   counter, generated without coordination (§IV-E).
//! * [`hash`] — MD5 from scratch (RFC 1321), the hash behind the mapping
//!   function (§IV-F).
//! * [`mapping`] — the deterministic mapping function `MD5(fid) mod N`, and
//!   the consistent-hashing ring the paper names as future work (§IV-F,
//!   §VII).
//! * [`shard`] — FID → physical path sharding (`cdef/89ab/4567/0123`),
//!   avoiding single-directory congestion on the back-end (§IV-G, Fig 4).
//! * [`meta`] — the znode data field: node type + FID + mode (§IV-D).
//! * [`plan`] — every metadata operation as one `async fn` over
//!   coordination-service and back-end requests, polled once per reply.
//!   One implementation of the semantics serves both the synchronous
//!   library and the discrete-event simulator.
//! * [`vfs`] — the synchronous POSIX-style filesystem API ([`vfs::Dufs`]).
//! * [`services`] — the service traits the VFS runs against, plus local
//!   (in-process) implementations.
//! * [`fuse`] — the "dummy FUSE" passthrough used by the paper's Fig 11
//!   memory comparison.
//! * [`cache`] — a client-side metadata cache with watch-based
//!   invalidation, exploring the caching trade-off §VI discusses.

pub mod cache;
pub mod error;
pub mod fid;
pub mod fuse;
pub mod hash;
pub mod mapping;
pub mod meta;
pub mod plan;
pub mod services;
pub mod shard;
pub mod vfs;

pub use cache::{CacheStats, CachingCoord};
pub use error::{DufsError, DufsResult};
pub use fid::{Fid, FidGenerator};
pub use mapping::{BackendMapper, ConsistentHashRing, Md5Mapping};
pub use meta::NodeMeta;
pub use services::{BackendSet, CoordService, LocalBackends};
pub use vfs::{Dufs, DufsAttr, DufsHandle, NodeKind};
