//! Consistent-hash placement of the namespace across shards.
//!
//! The source paper places file metadata by `MD5(fid) mod N` one layer
//! down; this module lifts the same idea to the coordination layer itself.
//! A [`HashRing`] with virtual nodes maps each path's **parent directory**
//! to one of N independent ZAB ensembles ("shards"), so:
//!
//! - all children of a directory land on one shard — `readdir` stays a
//!   single-shard operation;
//! - the ring's virtual nodes keep placement balanced and make shard
//!   add/remove move only ~1/N of the keyspace (each shard contributes its
//!   own vnode points; removing it removes exactly those points).
//!
//! Placement is a pure function of `(shard_count, vnodes, path)` — every
//! client computes the same routing table from the replicated
//! [`ShardConfig`] without any coordination.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use dufs_net::Wire;
use dufs_zkstore::{path as zkpath, ZkError, ZkResult};

/// Default virtual nodes per shard. 1024 points per shard keeps the
/// per-shard load imbalance within a few percent for realistic shard
/// counts (relative arc-length spread shrinks like `1/sqrt(vnodes)`) while
/// the full ring stays small (N×1024 points, binary-searched, built once
/// per session).
pub const DEFAULT_VNODES: u32 = 1024;

/// Path of the replicated shard-layout config znode. Written to **every**
/// shard by the sharded cluster bootstrap; a client reads it once, at
/// connect, and routes by it for the session's life.
pub const SHARD_CONFIG_PATH: &str = "/__shards";

/// Whether a path is coordination infrastructure (shard config, prepared
/// 2PC markers) rather than user namespace. Digest-parity checks across
/// different shard counts must exclude these.
pub fn is_internal_path(p: &str) -> bool {
    p == "/__shards"
        || p.starts_with("/__shards/")
        || p == crate::server::TXN_PREFIX
        || p.starts_with("/__txn/")
}

/// FNV-1a over the concatenation of `parts`.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in parts.iter().copied().flatten() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a with a murmur-style finalizer. Plain FNV-1a avalanches poorly in
/// its high bits on short, similar strings (exactly what paths and vnode
/// labels are), which visibly skews arc lengths on the ring; the finalizer
/// mixes every input bit into every output bit. Cheap and dependency-free.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h = fnv1a(&[bytes]);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The parent directory a path is placed by: `/a/b/c` → `/a/b`, top-level
/// nodes → `/`. The root itself places by `/`.
pub fn parent_dir(path: &str) -> &str {
    zkpath::parent(path).unwrap_or("/")
}

/// Content digest of a **logical** user namespace, independent of the
/// shard count, and its node count. `candidates`: the paths present on any
/// shard, coordination internals excluded; `data(s, p)`: `p`'s data on
/// shard `s` (`None`: not there), asked of `p`'s owner under `ring`. A
/// path exists logically if its owner holds it or it is an ancestor of one
/// that does, and adds FNV-1a of `path ‖ 0 ‖ owner data` (empty for an
/// ancestor held only as materialized copies — what a single-shard
/// `CreatePath` ancestor holds too). Equal digests across shard counts
/// certify the namespaces match.
pub fn logical_digest<E>(
    ring: &HashRing,
    candidates: impl IntoIterator<Item = String>,
    mut data: impl FnMut(usize, &str) -> Result<Option<Bytes>, E>,
) -> Result<(u64, usize), E> {
    let mut owned: BTreeMap<String, Bytes> = BTreeMap::new();
    for p in candidates.into_iter().collect::<BTreeSet<_>>() {
        if let Some(data) = data(ring.route_path(&p) as usize, &p)? {
            owned.insert(p, data);
        }
    }
    let mut logical: BTreeSet<&str> = BTreeSet::new();
    for p in owned.keys() {
        let mut cur = p.as_str();
        while cur != "/" && logical.insert(cur) {
            cur = parent_dir(cur);
        }
    }
    let node_hash = |p: &str| fnv1a(&[p.as_bytes(), &[0], owned.get(p).map_or(&[], |d| &d[..])]);
    let digest = logical.iter().fold(0u64, |acc, p| acc.wrapping_add(node_hash(p)));
    Ok((digest, logical.len()))
}

/// A consistent-hash ring over `shard_count` shards with `vnodes` virtual
/// nodes each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(point, shard)` sorted by point. Each shard contributes `vnodes`
    /// points hashed from `"shard-{id}-vn-{i}"`, so the point set of shard
    /// `k` is independent of which other shards exist — the minimal-remap
    /// property falls out directly.
    points: Vec<(u64, u32)>,
    shards: u32,
    vnodes: u32,
}

impl HashRing {
    /// Build the ring for shards `0..shard_count`.
    ///
    /// # Panics
    /// If `shard_count` or `vnodes` is zero.
    pub fn new(shard_count: u32, vnodes: u32) -> Self {
        assert!(shard_count > 0, "a ring needs at least one shard");
        assert!(vnodes > 0, "a shard needs at least one virtual node");
        let mut points = Vec::with_capacity((shard_count * vnodes) as usize);
        for shard in 0..shard_count {
            for vn in 0..vnodes {
                points.push((ring_hash(format!("shard-{shard}-vn-{vn}").as_bytes()), shard));
            }
        }
        // Ties broken by shard id so the ring is deterministic even in the
        // (astronomically unlikely) event of a point collision.
        points.sort_unstable();
        HashRing { points, shards: shard_count, vnodes }
    }

    /// Number of shards on the ring.
    pub fn shard_count(&self) -> u32 {
        self.shards
    }

    /// Virtual nodes per shard.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Consistent-hash lookup of a raw key: the shard owning the first
    /// ring point at or after `hash(key)`, wrapping at the top.
    pub fn route_key(&self, key: &str) -> u32 {
        let h = ring_hash(key.as_bytes());
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[idx % self.points.len()];
        shard
    }

    /// The shard a single-path operation on `path` routes to: placement by
    /// parent directory, so siblings colocate.
    pub fn route_path(&self, path: &str) -> u32 {
        self.route_key(parent_dir(path))
    }

    /// The shard that owns the *children* of directory `path` (listings
    /// route here; it is `route_path` of any child).
    pub fn route_children(&self, path: &str) -> u32 {
        self.route_key(path)
    }
}

/// The replicated shard-layout description stored at [`SHARD_CONFIG_PATH`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Layout version, written as 1 by the bootstrap. Nothing reads it
    /// yet: a session routes by the layout it read at connect.
    pub epoch: u64,
    /// Number of shards.
    pub shards: u32,
    /// Virtual nodes per shard.
    pub vnodes: u32,
}

dufs_net::wire! { ShardConfig { epoch: u64, shards: u32, vnodes: u32 } }

impl ShardConfig {
    /// Fixed-width little-endian encoding (16 bytes).
    pub fn encode(&self) -> Vec<u8> {
        self.to_wire()
    }

    /// Decode; malformed bytes (or a zero shard/vnode count) are
    /// [`ZkError::CorruptSnapshot`].
    pub fn decode(raw: &[u8]) -> ZkResult<Self> {
        match Self::from_wire(raw) {
            Ok(cfg) if cfg.shards != 0 && cfg.vnodes != 0 => Ok(cfg),
            _ => Err(ZkError::CorruptSnapshot),
        }
    }

    /// The ring this config describes.
    pub fn ring(&self) -> HashRing {
        HashRing::new(self.shards, self.vnodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_by_parent_directory() {
        let ring = HashRing::new(4, DEFAULT_VNODES);
        // Siblings colocate; the listing of their parent routes there too.
        let s = ring.route_path("/dir/a");
        assert_eq!(ring.route_path("/dir/b"), s);
        assert_eq!(ring.route_path("/dir/zzz"), s);
        assert_eq!(ring.route_children("/dir"), s);
        // Top-level nodes all hang off "/".
        assert_eq!(ring.route_path("/x"), ring.route_path("/y"));
        assert_eq!(parent_dir("/x"), "/");
        assert_eq!(parent_dir("/a/b/c"), "/a/b");
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let ring = HashRing::new(1, DEFAULT_VNODES);
        for p in ["/", "/a", "/a/b", "/deep/er/path"] {
            assert_eq!(ring.route_path(p), 0);
        }
    }

    #[test]
    fn config_round_trips_and_rejects_garbage() {
        let cfg = ShardConfig { epoch: 3, shards: 4, vnodes: 64 };
        assert_eq!(ShardConfig::decode(&cfg.encode()).unwrap(), cfg);
        assert_eq!(ShardConfig::decode(&[]), Err(ZkError::CorruptSnapshot));
        assert_eq!(ShardConfig::decode(&[0; 15]), Err(ZkError::CorruptSnapshot));
        assert_eq!(ShardConfig::decode(&[0; 16]), Err(ZkError::CorruptSnapshot), "zero shards");
        assert_eq!(cfg.ring().shard_count(), 4);
    }

    #[test]
    fn internal_paths_are_classified() {
        assert!(is_internal_path("/__shards"));
        assert!(is_internal_path("/__txn"));
        assert!(is_internal_path("/__txn/00000000000000ff"));
        assert!(!is_internal_path("/data"));
        assert!(!is_internal_path("/"));
    }
}
