//! Binary snapshot codec for the znode tree.
//!
//! ZooKeeper periodically serializes its in-memory tree to disk ("it is
//! periodically checkpointed on disk. So, it can tolerate the failure of
//! all servers by restarting them later" — paper §IV-I) and uses snapshots
//! to bring lagging followers up to date without replaying the full
//! transaction log. This module provides the equivalent: a compact,
//! versioned, self-validating binary encoding of a [`DataTree`].
//!
//! Format (little-endian):
//!
//! ```text
//! magic "DUFSSNAP" | version u16 | last_zxid u64 | node_count u64
//! per node: path_len u32 | path bytes | data_len u32 | data bytes
//!           | stat (10 fixed fields) | cseq u64
//! trailer: digest u64 (content digest of the decoded tree)
//! ```
//!
//! Nodes are emitted in path-sorted order, so encoding is deterministic:
//! two replicas with equal trees produce byte-identical snapshots.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes};

use crate::error::{ZkError, ZkResult};
use crate::tree::{DataTree, Stat};

const MAGIC: &[u8; 8] = b"DUFSSNAP";
const VERSION: u16 = 1;

/// Bytes before the first node: magic, version, last zxid, node count.
const HEADER: usize = 8 + 2 + 8 + 8;
/// Bytes of one node besides its path and data: their two `u32` lengths,
/// the eight stat fields that are stored, and the `cseq`.
const NODE_FIXED: usize = 2 * 4 + (5 * 8 + 2 * 4 + 8) + 8;
/// Bytes after the last node: the content digest.
const TRAILER: usize = 8;

/// Serialize the tree into a snapshot blob.
///
/// The blob is sized first and written once, in place. A checkpoint runs
/// on a replica's state-machine thread with a blob as large as the tree;
/// growing a buffer and then copying it into the shared form held two to
/// three blobs at once, and that thread's heap keeps its high-water mark.
pub fn encode(tree: &DataTree) -> Bytes {
    let mut paths = tree.subtree_paths("/").expect("root always exists");
    paths.sort();
    let data_len = |p: &String| tree.get_data(p).expect("listed path exists").0.len();
    let nodes: usize = paths.iter().map(|p| NODE_FIXED + p.len() + data_len(p)).sum();
    let mut blob: Arc<[u8]> = std::iter::repeat_n(0u8, HEADER + nodes + TRAILER).collect();
    let mut buf = Arc::get_mut(&mut blob).expect("not shared yet");
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u64_le(tree.last_zxid());
    buf.put_u64_le(paths.len() as u64);
    for p in &paths {
        let (data, stat) = tree.get_data(p).expect("listed path exists");
        buf.put_u32_le(p.len() as u32);
        buf.put_slice(p.as_bytes());
        buf.put_u32_le(data.len() as u32);
        buf.put_slice(&data);
        buf.put_u64_le(stat.czxid);
        buf.put_u64_le(stat.mzxid);
        buf.put_u64_le(stat.pzxid);
        buf.put_u64_le(stat.ctime_ns);
        buf.put_u64_le(stat.mtime_ns);
        buf.put_u32_le(stat.version);
        buf.put_u32_le(stat.cversion);
        buf.put_u64_le(stat.ephemeral_owner);
        buf.put_u64_le(tree.cseq_of(p).unwrap_or(0));
    }
    buf.put_u64_le(tree.digest());
    assert!(buf.is_empty(), "snapshot sized {} bytes too large", buf.len());
    Bytes::from(blob)
}

/// Reconstruct a tree from a snapshot blob. Fails with
/// [`ZkError::CorruptSnapshot`] if the blob is malformed, a node fails to
/// restore, or the content digest in the trailer does not match.
pub fn decode(blob: &[u8]) -> ZkResult<DataTree> {
    let mut b = blob;
    if b.remaining() < 8 + 2 + 8 + 8 || &b[..8] != MAGIC {
        return Err(ZkError::CorruptSnapshot);
    }
    b.advance(8);
    let version = b.get_u16_le();
    if version != VERSION {
        return Err(ZkError::CorruptSnapshot);
    }
    let last_zxid = b.get_u64_le();
    let count = b.get_u64_le() as usize;

    let mut tree = DataTree::new();
    for _ in 0..count {
        if b.remaining() < 4 {
            return Err(ZkError::CorruptSnapshot);
        }
        let plen = b.get_u32_le() as usize;
        if b.remaining() < plen {
            return Err(ZkError::CorruptSnapshot);
        }
        let path =
            std::str::from_utf8(&b[..plen]).map_err(|_| ZkError::CorruptSnapshot)?.to_string();
        b.advance(plen);
        if b.remaining() < 4 {
            return Err(ZkError::CorruptSnapshot);
        }
        let dlen = b.get_u32_le() as usize;
        if b.remaining() < dlen + 8 * 7 + 4 * 2 {
            return Err(ZkError::CorruptSnapshot);
        }
        let data = Bytes::copy_from_slice(&b[..dlen]);
        b.advance(dlen);
        let stat = Stat {
            czxid: b.get_u64_le(),
            mzxid: b.get_u64_le(),
            pzxid: b.get_u64_le(),
            ctime_ns: b.get_u64_le(),
            mtime_ns: b.get_u64_le(),
            version: b.get_u32_le(),
            cversion: b.get_u32_le(),
            ephemeral_owner: b.get_u64_le(),
            data_length: data.len() as u32,
            num_children: 0, // recomputed by restore_node
        };
        let cseq = b.get_u64_le();
        tree.restore_node(&path, data, stat, cseq).map_err(|_| ZkError::CorruptSnapshot)?;
    }
    if b.remaining() < 8 {
        return Err(ZkError::CorruptSnapshot);
    }
    let want_digest = b.get_u64_le();
    tree.set_last_zxid(last_zxid);
    if tree.digest() != want_digest {
        return Err(ZkError::CorruptSnapshot);
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::CreateMode;

    fn populated() -> DataTree {
        let mut t = DataTree::new();
        let mut z = 0u64;
        for (p, data) in [
            ("/a", &b"dir"[..]),
            ("/a/file", b"fid-0123"),
            ("/a/sub", b""),
            ("/a/sub/deep", b"payload"),
            ("/b", b"x"),
        ] {
            z += 1;
            t.create(p, Bytes::copy_from_slice(data), CreateMode::Persistent, 0, z, z * 10)
                .unwrap();
        }
        z += 1;
        t.set_data("/b", Bytes::from_static(b"y"), None, z, z * 10).unwrap();
        t
    }

    /// Dumped from the growing-buffer encoder this one replaced: writing
    /// the blob in place must not change a byte of it.
    #[test]
    fn encoding_is_pinned_byte_for_byte() {
        let golden = "\
             44554653534e4150010006000000000000000600000000000000010000002f00000000000000000000000000\
             0000000000000005000000000000000000000000000000000000000000000000000000020000000000000000\
             0000000000000000000000020000002f61030000006469720100000000000000010000000000000003000000\
             000000000a000000000000000a00000000000000000000000200000000000000000000000000000000000000\
             070000002f612f66696c65080000006669642d30313233020000000000000002000000000000000200000000\
             0000001400000000000000140000000000000000000000000000000000000000000000000000000000000006\
             0000002f612f737562000000000300000000000000030000000000000004000000000000001e000000000000\
             001e000000000000000000000001000000000000000000000000000000000000000b0000002f612f7375622f\
             64656570070000007061796c6f61640400000000000000040000000000000004000000000000002800000000\
             0000002800000000000000000000000000000000000000000000000000000000000000020000002f62010000\
             007905000000000000000600000000000000050000000000000032000000000000003c000000000000000100\
             0000000000000000000000000000000000000000000064116dd01d65176a";
        let hex: String = encode(&populated()).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden);
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = populated();
        let blob = encode(&t);
        let back = decode(&blob).unwrap();
        assert_eq!(back.digest(), t.digest());
        assert_eq!(back.node_count(), t.node_count());
        assert_eq!(back.last_zxid(), t.last_zxid());
        // Stats survive exactly.
        let (d0, s0) = t.get_data("/a/sub/deep").unwrap();
        let (d1, s1) = back.get_data("/a/sub/deep").unwrap();
        assert_eq!(d0, d1);
        assert_eq!(s0, s1);
        // Children lists are rebuilt.
        assert_eq!(back.get_children("/a").unwrap().0, vec!["file", "sub"]);
        assert_eq!(back.get_children("/a").unwrap().1.num_children, 2);
    }

    #[test]
    fn encoding_is_deterministic_across_replicas() {
        // Build the same contents in different orders: snapshots must be
        // byte-identical (path-sorted emission).
        let mut a = DataTree::new();
        a.create("/x", Bytes::new(), CreateMode::Persistent, 0, 1, 1).unwrap();
        a.create("/y", Bytes::new(), CreateMode::Persistent, 0, 2, 2).unwrap();
        let mut b = DataTree::new();
        b.create("/x", Bytes::new(), CreateMode::Persistent, 0, 1, 1).unwrap();
        b.create("/y", Bytes::new(), CreateMode::Persistent, 0, 2, 2).unwrap();
        assert_eq!(encode(&a), encode(&b));
    }

    #[test]
    fn sequential_counter_survives() {
        let mut t = DataTree::new();
        t.create("/q", Bytes::new(), CreateMode::Persistent, 0, 1, 0).unwrap();
        t.create("/q/s-", Bytes::new(), CreateMode::PersistentSequential, 0, 2, 0).unwrap();
        t.create("/q/s-", Bytes::new(), CreateMode::PersistentSequential, 0, 3, 0).unwrap();
        let mut back = decode(&encode(&t)).unwrap();
        let (p, _) =
            back.create("/q/s-", Bytes::new(), CreateMode::PersistentSequential, 0, 4, 0).unwrap();
        assert_eq!(p, "/q/s-0000000002", "counter continues after restore");
    }

    #[test]
    fn ephemerals_survive_with_owners() {
        let mut t = DataTree::new();
        t.create("/e", Bytes::new(), CreateMode::Ephemeral, 42, 1, 0).unwrap();
        let mut back = decode(&encode(&t)).unwrap();
        assert_eq!(back.ephemerals_of(42), vec!["/e"]);
        let (_, ev) = back.close_session(42, 2, 0);
        assert!(ev.iter().any(|e| e.path() == "/e"));
        assert!(back.exists("/e").unwrap().is_none());
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let t = populated();
        let blob = encode(&t);
        assert!(decode(&[]).is_err());
        assert!(decode(&blob[..blob.len() / 2]).is_err(), "truncated");
        let mut bad = blob.to_vec();
        bad[0] ^= 0xFF;
        assert!(decode(&bad).is_err(), "bad magic");
        let n = bad.len();
        let mut flipped = blob.to_vec();
        flipped[n - 1] ^= 0x01;
        assert!(decode(&flipped).is_err(), "digest mismatch");
    }

    #[test]
    fn memory_accounting_restored() {
        let t = populated();
        let back = decode(&encode(&t)).unwrap();
        assert_eq!(back.memory_bytes(), t.memory_bytes());
    }
}
