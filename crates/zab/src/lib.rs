#![warn(missing_docs)]

//! # dufs-zab — ZAB-style atomic broadcast and leader election
//!
//! The replication layer of the coordination service. ZooKeeper's
//! correctness — which the DUFS paper leans on for all namespace metadata —
//! comes from the ZooKeeper Atomic Broadcast protocol (ZAB): a single
//! elected leader assigns every state mutation a monotonically increasing
//! transaction id (*zxid*), replicates it to a quorum before commit, and all
//! replicas apply committed transactions in identical zxid order. Reads are
//! served locally by any replica.
//!
//! This crate implements the protocol as **pure state machines**
//! ([`ZabPeer`]): every input (message, timer) returns a list of
//! [`ZabAction`]s for the hosting runtime to perform. The same code is
//! driven by the deterministic discrete-event simulator for the paper's
//! throughput figures, by a thread-per-server runtime for live use, and by
//! randomized in-crate harnesses for safety testing. `ZabPeer` routes each
//! input to one of four private pieces of [`peer`] that own their state:
//! the log (searched by binary search), the election, the leader's
//! broadcast and the learner's sync.
//!
//! ## Protocol phases
//!
//! 1. **Election** — peers in `Looking` state exchange votes carrying
//!    `(last_zxid, peer_id)`; everyone adopts the largest vote they see and
//!    a candidate wins once a quorum votes identically (a simplified Fast
//!    Leader Election).
//! 2. **Synchronization** — followers report their `last_zxid`; the leader
//!    sends the missing log suffix (or a full replacement if histories
//!    diverged), then declares its entire history committed. Because the
//!    winner has the highest zxid of any quorum and commits require quorum
//!    acknowledgement, every previously committed transaction survives.
//! 3. **Broadcast** — `PROPOSE` → quorum `ACK` → `COMMIT`, pipelined;
//!    commit order equals proposal order equals delivery order.
//!
//! Failure handling: leader heartbeats; followers fall back to election on
//! silence; a leader that loses contact with a quorum abdicates, which
//! prevents a minority partition from accepting writes.

pub mod config;
pub mod msg;
pub mod peer;
pub mod zxid;

pub use config::{EnsembleConfig, PeerId, ZabConfig};
pub use msg::{Data, PersistEvent, Vote, ZabAction, ZabMsg, ZabTimer};
pub use peer::{DurableState, Role, ZabPeer};
pub use zxid::Zxid;
