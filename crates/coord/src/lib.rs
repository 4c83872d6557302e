#![warn(missing_docs)]

//! # dufs-coord — the replicated coordination service
//!
//! The ZooKeeper-equivalent that DUFS delegates all namespace metadata to
//! (paper §II-C, §IV-D). A coordination ensemble is a set of
//! [`server::CoordServer`]s, each combining:
//!
//! * a [`dufs_zab::ZabPeer`] for leader election and atomic broadcast,
//! * a replicated [`dufs_zkstore::DataTree`] applied in commit order,
//! * server-local sessions and one-shot watches.
//!
//! **Consistency model** (exactly ZooKeeper's, which the paper's argument
//! requires): all mutations are totally ordered by the leader and applied in
//! the same order on every server; reads are served locally by whichever
//! server the client is connected to (sequentially consistent, possibly
//! slightly stale); `sync` flushes a server up to the leader's commit point.
//! This split is what makes reads scale *with* ensemble size while mutations
//! slow *down* — Fig 7 of the paper, regenerated in `dufs-bench`.
//!
//! Like the protocol crates underneath, the server is a pure state machine
//! ([`server::CoordServer::handle`]). [`event_loop::Member`] wraps it
//! with the crash, timer and dispatch rules every host shares; the crate
//! ships the live host on loopback or real sockets ([`tcp::TcpServer`],
//! [`tcp::TcpCluster`]), and a synchronous client API
//! ([`runtime::ZkClient`]) equivalent to the ZooKeeper sync API the paper's
//! prototype uses.

pub mod api;
pub mod cluster;
pub mod event_loop;
pub mod runtime;
pub mod server;
pub mod session;
pub mod shard;
pub mod sharded;
pub mod tcp;
pub mod txn;
pub mod watch;
pub mod wire;

pub use api::{ClientOptions, LeaseGrant, ReadConsistency, Watch, ZkRequest, ZkResponse};

/// What a `WarmChildren` round trip hands back: the sorted
/// `(name, data, stat)` triples plus the parent directory's own stat.
pub type WarmedDir = (Vec<(String, bytes::Bytes, dufs_zkstore::Stat)>, dufs_zkstore::Stat);
pub use cluster::ClusterBuilder;
pub use runtime::{ClientTransport, ZkClient};
pub use server::{ClientId, CoordMsg, CoordServer, CoordTimer, ServerIn, ServerOut};
pub use session::CoordService;
pub use shard::{HashRing, ShardConfig, SHARD_CONFIG_PATH};
pub use sharded::{ShardedClient, ShardedCluster};
pub use tcp::{remote_status, TcpCluster, TcpTransport, TcpZkClient};
pub use txn::{Txn, TxnOp};
pub use watch::{WatchKind, WatchNotification};
pub use wire::{ClientFrame, ServerFrame};
