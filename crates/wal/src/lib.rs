#![warn(missing_docs)]

//! Durable write-ahead log for the replicated metadata service.
//!
//! ZooKeeper's availability story (paper §IV-I) rests on every committed
//! transaction being "logged to disk before it is applied", so the ensemble
//! "can tolerate the failure of all servers by restarting them later". This
//! crate is that missing durability layer for the DUFS reproduction:
//!
//! * a **segmented, CRC32-framed, append-only log** ([`Wal`]) whose fsync
//!   boundaries align with the ZAB group-commit batches from
//!   `ZabConfig{max_batch, flush_ms}` — one `sync` per batch, not per txn;
//! * **snapshot checkpointing**: the coordination server periodically writes
//!   a `dufs-zkstore` snapshot blob through the same storage, after which
//!   log segments fully covered by the checkpoint are deleted;
//! * **crash recovery** ([`Wal::open`]): pick the newest snapshot whose
//!   frame validates, replay the surviving log tail, and discard a torn
//!   final record (a crash mid-`write(2)`) without discarding anything that
//!   a successful fsync ever covered.
//!
//! Storage goes through the [`LogStorage`] trait so the same `Wal` logic is
//! exercised against three backends: real files ([`FileStorage`]) for the
//! threaded runtime and benchmarks, a deterministic in-memory model
//! ([`MemStorage`]) that keeps the discrete-event simulator reproducible
//! while still modelling fsync semantics (unsynced bytes vanish on crash),
//! and an adversarial wrapper ([`FaultyStorage`]) injecting torn tail
//! writes, partial fsyncs, bit flips and short reads.
//!
//! The one invariant everything above defends: **a record covered by a
//! successful `sync` is never lost and never altered**. Corruption is only
//! ever possible in the unsynced tail, and recovery only ever discards from
//! the tail of the final segment.

// The transport's CRC-32, compiled in from its source: the same checksum
// frames the wire and the log, and a Cargo dependency on `dufs-net` would
// have to be recorded in lock files this crate does not own.
#[path = "../../net/src/crc.rs"]
mod crc;
mod log;
mod storage;

pub use crate::crc::{crc32, crc32_parts};
pub use crate::log::{Recovered, Wal, WalConfig, WalRecord};
pub use crate::storage::{FaultConfig, FaultyStorage, FileStorage, LogStorage, MemStorage};

use std::fmt;

/// Errors surfaced by the WAL.
#[derive(Debug)]
pub enum WalError {
    /// The underlying storage failed (I/O error, injected fsync failure).
    /// The caller must treat itself as crashed: the on-disk suffix past the
    /// last successful sync is in an unknown state.
    Io(std::io::Error),
    /// A sealed (non-final) segment or a snapshot frame failed validation.
    /// Unlike a torn tail this is never expected from a clean crash and is
    /// not recoverable by discarding a suffix.
    Corrupt(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal storage error: {e}"),
            WalError::Corrupt(what) => write!(f, "wal corruption: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Result alias for WAL operations.
pub type WalResult<T> = Result<T, WalError>;
