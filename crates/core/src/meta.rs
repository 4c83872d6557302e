//! The znode custom data field (paper §IV-D/E).
//!
//! "In DUFS, this custom field is used to tell the Znode if it is
//! representing a directory or a file. In the latter case, the FID of the
//! file is also stored in this field." We additionally keep the mode bits
//! for directories/symlinks (their POSIX attributes live entirely in the
//! coordination service) and the symlink target.
//!
//! The layout is declared once with the transport's `wire!` (reached
//! through `dufs_coord::wire`): a kind tag, the mode (`u32` LE), then a
//! file's FID as 16 big-endian bytes or a symlink's target as the rest of
//! the field. A directory is exactly 5 bytes and a file exactly 21.

use bytes::Bytes;
use dufs_coord::wire::{wire, Codec, RestStr, Wire, WireCursor, WireError};

use crate::error::DufsError;
use crate::fid::Fid;

/// Decoded znode payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeMeta {
    /// A virtual directory (exists only in the coordination service).
    Dir {
        /// Permission bits.
        mode: u32,
    },
    /// A virtual file backed by physical contents named by `fid`.
    File {
        /// The 128-bit file identifier.
        fid: Fid,
        /// Permission bits recorded at create time (authoritative bits
        /// live with the physical file).
        mode: u32,
    },
    /// A symbolic link.
    Symlink {
        /// Link target (virtual path or arbitrary string, as POSIX).
        target: String,
        /// Permission bits (conventionally 0o777).
        mode: u32,
    },
}

impl NodeMeta {
    /// Directory with the given mode.
    pub fn dir(mode: u32) -> Self {
        NodeMeta::Dir { mode }
    }
    /// File with the given FID and mode.
    pub fn file(fid: Fid, mode: u32) -> Self {
        NodeMeta::File { fid, mode }
    }
    /// Symlink to `target`.
    pub fn symlink(target: impl Into<String>) -> Self {
        NodeMeta::Symlink { target: target.into(), mode: 0o777 }
    }

    /// Whether this is a directory.
    pub fn is_dir(&self) -> bool {
        matches!(self, NodeMeta::Dir { .. })
    }

    /// The FID, if a file.
    pub fn fid(&self) -> Option<Fid> {
        match self {
            NodeMeta::File { fid, .. } => Some(*fid),
            _ => None,
        }
    }

    /// Mode bits.
    pub fn mode(&self) -> u32 {
        match self {
            NodeMeta::Dir { mode }
            | NodeMeta::File { mode, .. }
            | NodeMeta::Symlink { mode, .. } => *mode,
        }
    }

    /// Replace the mode bits (chmod on directories/symlinks).
    pub fn with_mode(self, mode: u32) -> Self {
        match self {
            NodeMeta::Dir { .. } => NodeMeta::Dir { mode },
            NodeMeta::File { fid, .. } => NodeMeta::File { fid, mode },
            NodeMeta::Symlink { target, .. } => NodeMeta::Symlink { target, mode },
        }
    }

    /// Serialize into the znode data field.
    pub fn encode(&self) -> Bytes {
        Bytes::copy_from_slice(&self.to_wire())
    }

    /// Parse a znode data field.
    pub fn decode(data: &[u8]) -> Result<Self, DufsError> {
        NodeMeta::from_wire(data).map_err(|_| DufsError::CorruptMetadata)
    }
}

wire! {
    NodeMeta {
        1 => Dir { mode: u32 },
        2 => File { mode: u32, fid: FidBe },
        3 => Symlink { mode: u32, target: RestStr },
    }
}

/// A [`Fid`] as 16 big-endian bytes.
struct FidBe;

impl<'a> Codec<'a> for FidBe {
    type Value = Fid;
    const MIN: usize = 16;
    fn put(v: &Fid, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&v.to_be_bytes());
    }
    fn get(c: &mut WireCursor<'a>) -> Result<Fid, WireError> {
        Ok(Fid(u128::from_be_bytes(c.take(16)?.try_into().expect("16 bytes"))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG_DIR: u8 = 1;
    const TAG_FILE: u8 = 2;
    const TAG_SYMLINK: u8 = 3;

    /// One value of every kind; a kind added to [`NodeMeta`] without an
    /// entry here fails [`every_declared_tag_is_covered`].
    fn one_of_each() -> [NodeMeta; 3] {
        [NodeMeta::dir(0o755), NodeMeta::file(Fid::new(3, 9), 0o640), NodeMeta::symlink("/a/b")]
    }

    #[test]
    fn every_declared_tag_is_covered() {
        let mut tags: Vec<u8> = one_of_each().iter().map(|m| m.encode()[0]).collect();
        tags.sort_unstable();
        assert_eq!(tags, <NodeMeta as Codec<'_>>::TAGS);
        assert_eq!(tags, [TAG_DIR, TAG_FILE, TAG_SYMLINK]);
        for m in one_of_each() {
            assert!(m.encode().len() >= <NodeMeta as Codec<'_>>::MIN, "{m:?}");
        }
    }

    #[test]
    fn roundtrip_all_kinds() {
        let cases = [
            NodeMeta::dir(0o755),
            NodeMeta::file(Fid::new(3, 9), 0o640),
            NodeMeta::symlink("/a/target with spaces"),
        ];
        for m in cases {
            let enc = m.encode();
            assert_eq!(NodeMeta::decode(&enc).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn accessors() {
        let f = NodeMeta::file(Fid::new(1, 2), 0o600);
        assert!(!f.is_dir());
        assert_eq!(f.fid(), Some(Fid::new(1, 2)));
        assert_eq!(f.mode(), 0o600);
        assert_eq!(f.clone().with_mode(0o400).mode(), 0o400);
        assert_eq!(f.with_mode(0o400).fid(), Some(Fid::new(1, 2)), "chmod keeps the FID");
        let d = NodeMeta::dir(0o700);
        assert!(d.is_dir());
        assert_eq!(d.fid(), None);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(NodeMeta::decode(&[]).is_err());
        assert!(NodeMeta::decode(&[9, 0, 0, 0, 0]).is_err(), "unknown tag");
        assert!(NodeMeta::decode(&[TAG_FILE, 0, 0, 0, 0, 1, 2]).is_err(), "short FID");
        assert!(NodeMeta::decode(&[TAG_DIR, 0, 0, 0, 0, 99]).is_err(), "trailing junk on dir");
        assert!(NodeMeta::decode(&[TAG_SYMLINK, 0, 0, 0, 0, 0xFF, 0xFE]).is_err(), "bad utf8");
    }

    #[test]
    fn a_file_payload_with_a_trailing_byte_is_refused() {
        let mut raw = NodeMeta::file(Fid::new(1, 2), 0o644).encode().to_vec();
        assert_eq!(raw.len(), 21);
        raw.push(0);
        assert!(NodeMeta::decode(&raw).is_err());
    }
}
