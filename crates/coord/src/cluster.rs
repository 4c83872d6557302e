//! One builder for every ensemble shape — the single entry point that
//! replaced the `start*` constructors that had accreted on the live
//! clusters.
//!
//! ```
//! use dufs_coord::cluster::ClusterBuilder;
//!
//! let cluster = ClusterBuilder::new().voters(3).tcp();
//! # cluster.shutdown();
//! ```

use std::path::{Path, PathBuf};

use crate::sharded::ShardedCluster;
use crate::tcp::TcpCluster;

/// Builder for a coordination ensemble. Configure the membership and
/// durability, then start it with [`ClusterBuilder::tcp`] (one ensemble) or
/// [`ClusterBuilder::sharded_tcp`] (several behind one namespace), real
/// sockets on localhost either way.
#[derive(Debug, Clone, Default)]
pub struct ClusterBuilder {
    voters: Option<usize>,
    observers: usize,
    wal_dir: Option<PathBuf>,
    shards: usize,
}

impl ClusterBuilder {
    /// A builder for the default shape: 3 voters, no observers, volatile
    /// state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of voting servers (default 3).
    pub fn voters(mut self, n: usize) -> Self {
        self.voters = Some(n);
        self
    }

    /// Number of non-voting read replicas, with ids
    /// `voters..voters+observers` (default 0).
    pub fn observers(mut self, n: usize) -> Self {
        self.observers = n;
        self
    }

    /// Make the ensemble durable: each server runs a file-backed
    /// write-ahead log under `dir/server-<id>` and fsyncs every replicated
    /// batch before acknowledging it. An ensemble started over an existing
    /// directory recovers its state from disk (newest valid checkpoint +
    /// log-tail replay).
    pub fn durable(mut self, dir: impl AsRef<Path>) -> Self {
        self.wal_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Start the ensemble as TCP servers on ephemeral localhost ports —
    /// real sockets, real framing, the runtime the network benchmarks use.
    pub fn tcp(self) -> TcpCluster {
        TcpCluster::start_inner(self.voters.unwrap_or(3), self.observers, self.wal_dir)
    }

    /// Number of independent shard ensembles [`ClusterBuilder::sharded_tcp`]
    /// starts (default 1). Each shard is a full ensemble of the configured shape;
    /// a durable sharded cluster puts shard `k` under `dir/shard-<k>`.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "a sharded cluster needs at least one shard");
        self.shards = n;
        self
    }

    /// Start `shards` TCP ensembles behind one sharded namespace.
    pub fn sharded_tcp(self) -> ShardedCluster {
        let shards = (0..self.shards.max(1))
            .map(|k| {
                TcpCluster::start_inner(
                    self.voters.unwrap_or(3),
                    self.observers,
                    self.wal_dir.as_ref().map(|d| d.join(format!("shard-{k}"))),
                )
            })
            .collect();
        ShardedCluster::from_shards(shards).expect("bootstrap shard config")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_three_volatile_voters() {
        let b = ClusterBuilder::new();
        assert_eq!(b.voters, None);
        assert_eq!(b.observers, 0);
        assert!(b.wal_dir.is_none());
    }

    #[test]
    fn builder_composes() {
        let b = ClusterBuilder::new().voters(5).observers(2).durable("/tmp/never-started");
        assert_eq!(b.voters, Some(5));
        assert_eq!(b.observers, 2);
        assert_eq!(b.wal_dir.as_deref(), Some(Path::new("/tmp/never-started")));
    }
}
