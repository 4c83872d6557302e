#![warn(missing_docs)]

//! # dufs-store — the durable data path
//!
//! DUFS decouples metadata from data: the metadata service hands out FIDs,
//! and `MD5(fid) mod N` picks which back-end stores the file's bytes. In
//! the simulator that back end is `backendfs::ObjectStore`, a purely
//! in-memory model. This crate makes the data half real:
//!
//! * [`FileEngine`] — a crash-safe, file-backed
//!   [`StorageEngine`](dufs_backendfs::StorageEngine): one directory per
//!   storage target, stripe chunks appended to a CRC32-framed extent log
//!   (`extents.dat`) with a small checkpointed index (`index.bin`),
//!   torn-write recovery on open, and a configurable [`FsyncPolicy`]
//!   reusing `dufs-wal`'s group-fsync discipline.
//! * [`StoreServer`] / the `store_server` binary — one process per target,
//!   speaking [`StoreReq`]/[`StoreRep`] codecs over `dufs-net` frames in
//!   the demux delivery mode.
//! * [`StoreClient`] — routes `MD5(fid) mod N` to a starting target,
//!   stripes writes round-robin from there exactly like `ObjectStore`
//!   does, and pipelines per-target requests so a striped transfer keeps
//!   every target busy at once.
//!
//! The shape follows Lustre's MDS/OST split (Braam, *The Lustre Storage
//! Architecture*): clients learn object identity from metadata, then move
//! bytes directly against the storage targets.

pub mod client;
pub mod file;
pub mod msg;
pub mod server;

pub use client::{LocalTarget, StoreClient, StoreError, StoreTarget, TcpTarget};
pub use file::{FileEngine, FsyncPolicy};
pub use msg::{RepBody, ReqOp, StoreRep, StoreReq};
pub use server::{apply_req, StoreServer};

// Re-exported so digest helpers in mdtest/bench can CRC contents without
// depending on dufs-net directly.
pub use dufs_net::crc32;
