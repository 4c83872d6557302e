//! The one record frame, on the wire and on disk:
//!
//! ```text
//! record:      len u32 | crc32 u32 | payload[len]      (little-endian)
//! sealed file: prefix | len u32 | crc32 u32 | body[len]
//! ```
//!
//! Socket frames (`frame`), the write-ahead log's segment records and the
//! data servers' extent log are records; the log's snapshots and the
//! extent log's `index.bin` are sealed files. `dufs-wal` compiles this
//! file (a `#[path]` module, beside `crc.rs`) rather than depending on
//! this crate, so every record is built, scanned and sealed here.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::crc::{crc32, crc32_parts};

/// Hard cap on a record's payload: anything larger is framing corruption,
/// not data (a torn length field must not make a reader allocate
/// gigabytes).
pub const MAX_FRAME: usize = 64 << 20;

/// Bytes in a record's head.
pub const HEAD: usize = 8;

/// The head of a record whose payload is `parts`, back to back.
pub fn head(parts: &[&[u8]]) -> [u8; HEAD] {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let mut head = [0u8; HEAD];
    head[..4].copy_from_slice(&(len as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32_parts(parts).to_le_bytes());
    head
}

/// A head's payload length and CRC.
pub fn split(head: &[u8; HEAD]) -> (usize, u32) {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *head;
    (u32::from_le_bytes([l0, l1, l2, l3]) as usize, u32::from_le_bytes([c0, c1, c2, c3]))
}

/// Scan a log of records from `r`, at most `limit` bytes of it, calling
/// `each(offset, payload)` for every intact record in order (`offset` is
/// where its head starts, from `r`'s start). The scan stops at the first
/// record that is short, zero-length, over [`MAX_FRAME`] or fails its CRC
/// — all a crash mid-append can leave — and returns the length of the
/// intact prefix. What that stop means is the caller's policy; an error
/// from `each` (a record intact but meaningless) or from `r` ends the scan
/// with that error.
pub fn scan<E: From<io::Error>>(
    mut r: impl Read,
    limit: u64,
    mut each: impl FnMut(u64, &[u8]) -> Result<(), E>,
) -> Result<u64, E> {
    let mut pos = 0u64;
    let mut payload = Vec::new();
    loop {
        let mut h = [0u8; HEAD];
        if limit - pos < HEAD as u64 || !fill(&mut r, &mut h)? {
            return Ok(pos);
        }
        let (len, crc) = split(&h);
        if len == 0 || len > MAX_FRAME || limit - pos - (HEAD as u64) < len as u64 {
            return Ok(pos);
        }
        payload.resize(len, 0);
        if !fill(&mut r, &mut payload)? || crc32(&payload) != crc {
            return Ok(pos);
        }
        each(pos, &payload)?;
        pos += (HEAD + len) as u64;
    }
}

/// Fill `buf` from `r`; `false` if the stream ends first.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    match r.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// The head of a sealed file holding `body`: `prefix`, then the record
/// head. The body is written after it, apart (it may be as large as the
/// state it checkpoints).
pub fn seal(prefix: &[u8], body: &[u8]) -> Vec<u8> {
    [prefix, &head(&[body])].concat()
}

/// The body of sealed file `raw`, if it starts with `prefix` and its body
/// is whole and intact.
pub fn unseal<'a>(prefix: &[u8], raw: &'a [u8]) -> Option<&'a [u8]> {
    let (h, body) = raw.strip_prefix(prefix)?.split_first_chunk::<HEAD>()?;
    let (len, crc) = split(h);
    (body.len() == len && crc32(body) == crc).then_some(body)
}

/// Put `parts`, back to back, at `path` atomically: they are written to
/// the same name with extension `tmp` and synced, the file is renamed over
/// `path`, and the directory is synced. A crash leaves the old file or the
/// whole new one.
pub fn replace(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp)?;
    for part in parts {
        f.write_all(part)?;
    }
    f.sync_data()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))
}

/// Make `dir`'s entries (files created, renamed or removed) durable.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(payloads: &[&[u8]]) -> Vec<u8> {
        payloads.iter().flat_map(|p| [&head(&[p])[..], p].concat()).collect()
    }

    fn scanned(raw: &[u8]) -> (Vec<(u64, Vec<u8>)>, u64) {
        let mut got = Vec::new();
        let valid = scan::<io::Error>(raw, raw.len() as u64, |off, p| {
            got.push((off, p.to_vec()));
            Ok(())
        })
        .unwrap();
        (got, valid)
    }

    #[test]
    fn a_head_streams_its_crc_over_the_parts() {
        assert_eq!(head(&[b"abc", b"def"]), head(&[b"abcdef"]));
        let (len, crc) = split(&head(&[b"abcdef"]));
        assert_eq!((len, crc), (6, crc32(b"abcdef")));
        assert_eq!(head(&[]), [0; HEAD], "a heartbeat's head is all zeros");
    }

    #[test]
    fn the_scan_stops_at_the_first_record_a_crash_could_tear() {
        let raw = log(&[b"one", b"two", b"three"]);
        let (got, valid) = scanned(&raw);
        assert_eq!(got, vec![(0, b"one".to_vec()), (11, b"two".to_vec()), (22, b"three".to_vec())]);
        assert_eq!(valid, raw.len() as u64);
        // Cut anywhere: the intact prefix, never a mangled record.
        for cut in 0..raw.len() {
            let (got, valid) = scanned(&raw[..cut]);
            let whole = [0, 11, 22, 35].into_iter().filter(|&end| end <= cut as u64).count() - 1;
            assert_eq!(got.len(), whole, "cut {cut}");
            assert_eq!(valid, [0, 11, 22, 35][whole], "cut {cut}");
        }
        // A flipped payload bit, a zero length, a length over the cap.
        let mut bad = raw.clone();
        bad[19] ^= 1;
        assert_eq!(scanned(&bad).1, 11);
        let zero = [log(&[b"one"]), vec![0; HEAD], log(&[b"two"])].concat();
        assert_eq!(scanned(&zero).1, 11);
        let mut over = log(&[b"one"]);
        over.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        over.extend_from_slice(&[0; 4]);
        assert_eq!(scanned(&over).1, 11);
    }

    #[test]
    fn the_scan_hands_back_an_error_from_its_caller() {
        let raw = log(&[b"one", b"two"]);
        let r = scan(&raw[..], raw.len() as u64, |off, _| match off {
            0 => Ok(()),
            _ => Err(io::Error::from(io::ErrorKind::InvalidData)),
        });
        assert_eq!(r.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_sealed_file_opens_only_whole_and_behind_its_prefix() {
        let raw = [seal(b"PFX", b"body"), b"body".to_vec()].concat();
        assert_eq!(unseal(b"PFX", &raw), Some(&b"body"[..]));
        assert_eq!(unseal(b"PFY", &raw), None);
        for cut in 0..raw.len() {
            assert_eq!(unseal(b"PFX", &raw[..cut]), None, "cut {cut}");
        }
        let mut flipped = raw.clone();
        flipped[raw.len() - 1] ^= 1;
        assert_eq!(unseal(b"PFX", &flipped), None);
        assert_eq!(unseal(b"PFX", &[raw.clone(), vec![0]].concat()), None);
    }
}
