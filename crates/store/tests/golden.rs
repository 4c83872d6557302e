//! Golden bytes: the store's wire frames and its on-disk extent log,
//! dumped from the commit before the borrowed (one-copy-per-hop) data path
//! and pinned here, so a change to how bytes are *moved* cannot change
//! what bytes are *sent or stored* — and a target directory written by an
//! older build still opens, replays and reads back.

use std::path::PathBuf;

use dufs_backendfs::StorageEngine;
use dufs_store::{FileEngine, FsyncPolicy, RepBody, ReqOp, StoreRep, StoreReq};

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dufs-store-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const OBJ: u128 = 0x0011_2233_4455_6677_8899_AABB_CCDD_EEFF;

#[test]
fn every_request_frame_is_pinned_byte_for_byte() {
    let golden: [(u64, ReqOp<'_>, &str); 5] = [
        (
            0x0102_0304_0506_0708,
            ReqOp::Write { obj: OBJ, stripe: 7, within: 3, data: b"stripe-bytes" },
            "0108070605040302017766554433221100ffeeddccbbaa9988070000000000000003000000\
             0c0000007374726970652d6279746573",
        ),
        (
            2,
            ReqOp::Read { obj: OBJ, stripe: 7, within: 3, len: 12 },
            "0202000000000000007766554433221100ffeeddccbbaa9988070000000000000003000000\
             0c000000",
        ),
        (3, ReqOp::Stat(OBJ), "0303000000000000007766554433221100ffeeddccbbaa9988"),
        (4, ReqOp::Delete(OBJ), "0404000000000000007766554433221100ffeeddccbbaa9988"),
        (5, ReqOp::Sync, "050500000000000000"),
    ];
    for (seq, op, hex) in golden {
        let (req, raw) = (StoreReq { seq, op }, unhex(hex));
        assert_eq!(req.encode(), raw, "{req:?}");
        assert_eq!(StoreReq::decode(&raw), Ok(req));
    }
}

#[test]
fn every_reply_frame_is_pinned_byte_for_byte() {
    let data = "0202000000000000000c0000007374726970652d6279746573";
    let golden: [(u64, RepBody<'_>, &str); 7] = [
        (1, RepBody::Written, "010100000000000000"),
        (2, RepBody::Data(b"stripe-bytes"), data),
        (3, RepBody::Statted(Some((7, 15))), "0303000000000000000107000000000000000f000000"),
        (3, RepBody::Statted(None), "03030000000000000000"),
        (4, RepBody::Deleted(true), "04040000000000000001"),
        (5, RepBody::Synced, "050500000000000000"),
        (6, RepBody::Err("disk on fire"), "0606000000000000000c0000006469736b206f6e2066697265"),
    ];
    for (seq, body, hex) in golden {
        let (rep, raw) = (StoreRep { seq, body }, unhex(hex));
        assert_eq!(rep.encode(), raw, "{rep:?}");
        assert_eq!(StoreRep::decode(&raw), Ok(rep));
    }
    // The frame a server reads stored bytes into is the same encoding.
    let mut frame = StoreRep::zeroed_data_frame(2, 12);
    frame[StoreRep::DATA_AT..].copy_from_slice(b"stripe-bytes");
    assert_eq!(frame, unhex(data));
}

/// `extents.dat` after [`fixed_history`], as the parent commit wrote it:
/// magic, then Put / overwriting Put / Put / Put / Truncate / Delete / Put
/// / (checkpoint) / Put, each `len | crc | payload`.
const EXTENTS: &str = "4455465353544f31\
    28000000a895d208010000000000000000070000000000000000000000000000000000000068656c6c6f20776f726c64\
    240000008adeaef90100000000000000000700000000000000000000000000000006000000574f524c442121\
    23000000cfeddff201000000000000000007000000000000000100000000000000020000007365636f6e64\
    210000008650ff4501000000000000000009000000000000000000000000000000000000006e696e65\
    260000009de08fa00300000000000000000700000000000000010000000000000001000000000000000008000000\
    11000000517a9c0202000000000000000009000000000000\
    00210000002bd345a701000000000000000007000000000000000200000000000000000000007461696c\
    220000006c235fb701000000000000000007000000000000000300000000000000000000006166746572";

/// `index.bin` as the parent's checkpoint (taken before the last Put)
/// wrote it.
const INDEX: &str = "4455465353495831800000004b7f34f2\
    2801000000000000020000000000000000000000000000000700000000000000000000000000000008000000\
    0200000000000000080000002d0000000000000006000000020000005d000000000000000000000000000000\
    07000000000000000200000000000000040000000100000000000000040000002401000000000000";

/// Length of the last record (`Put 7/3 "after"`): 8 + 29 + 5.
const LAST_RECORD: u64 = 42;

/// put / overwrite / put / put / truncate / delete / put / checkpoint / put.
fn fixed_history(e: &mut FileEngine) {
    e.write(7, 0, 0, b"hello world").unwrap();
    e.write(7, 0, 6, b"WORLD!!").unwrap();
    e.write(7, 1, 2, b"second").unwrap();
    e.write(9, 0, 0, b"nine").unwrap();
    e.truncate(7, 1, Some((0, 8))).unwrap();
    e.delete(9).unwrap();
    e.write(7, 2, 0, b"tail").unwrap();
    e.sync().unwrap();
    e.checkpoint().unwrap();
    e.write(7, 3, 0, b"after").unwrap();
    e.sync().unwrap();
}

/// What the history leaves readable. `with_last` is false once the final
/// Put has been torn off.
fn assert_contents(e: &mut FileEngine, with_last: bool) {
    let mut read = |obj, stripe| {
        let mut buf = [0xAAu8; 16];
        let n = e.read(obj, stripe, 0, &mut buf).unwrap();
        buf[..n].to_vec()
    };
    assert_eq!(read(7, 0), b"hello WO", "overwritten, then trimmed to 8");
    assert_eq!(read(7, 1), b"", "truncated away");
    assert_eq!(read(7, 2), b"tail");
    assert_eq!(read(7, 3), if with_last { &b"after"[..] } else { b"" });
    assert_eq!(read(9, 0), b"", "deleted");
    assert_eq!(e.last_stripe(7), Some(if with_last { (3, 5) } else { (2, 4) }));
    assert_eq!(e.last_stripe(9), None, "deleted");
}

#[test]
fn the_extent_log_and_its_checkpoint_are_pinned_byte_for_byte() {
    let dir = tmp("write");
    let mut e = FileEngine::open(&dir, FsyncPolicy::None).unwrap();
    fixed_history(&mut e);
    assert_contents(&mut e, true);
    drop(e);
    assert_eq!(std::fs::read(dir.join("extents.dat")).unwrap(), unhex(EXTENTS));
    assert_eq!(std::fs::read(dir.join("index.bin")).unwrap(), unhex(INDEX));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_directory_written_by_the_parent_opens_replays_and_reads_back() {
    // With the checkpoint (replays only the last record) and without it
    // (replays the whole log).
    for with_index in [true, false] {
        let dir = tmp(if with_index { "open-ckpt" } else { "open-scan" });
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("extents.dat"), unhex(EXTENTS)).unwrap();
        if with_index {
            std::fs::write(dir.join("index.bin"), unhex(INDEX)).unwrap();
        }
        let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
        assert_contents(&mut e, true);
        // And it keeps appending where the parent stopped.
        e.write(7, 4, 0, b"more").unwrap();
        e.sync().unwrap();
        drop(e);
        let log = std::fs::read(dir.join("extents.dat")).unwrap();
        assert_eq!(log[..unhex(EXTENTS).len()], unhex(EXTENTS));
        assert_eq!(log.len() as u64, unhex(EXTENTS).len() as u64 + 8 + 29 + 4);
        let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(e.read(7, 4, 0, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"more");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_torn_tail_is_cut_at_the_last_intact_record() {
    let whole = unhex(EXTENTS);
    for torn_bytes in [1, LAST_RECORD - 1] {
        let dir = tmp(&format!("torn-{torn_bytes}"));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("extents.dat");
        std::fs::write(&log, &whole[..whole.len() - torn_bytes as usize]).unwrap();
        std::fs::write(dir.join("index.bin"), unhex(INDEX)).unwrap();
        let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
        assert_contents(&mut e, false);
        assert_eq!(std::fs::metadata(&log).unwrap().len(), whole.len() as u64 - LAST_RECORD);
        // The next append lands exactly where the tear was cut.
        e.write(7, 3, 0, b"after").unwrap();
        e.sync().unwrap();
        drop(e);
        assert_eq!(std::fs::read(&log).unwrap(), whole);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `extents.dat` after a Put, a Truncate without a trim and a zero-length
/// Put (the record a rewrite writes for an empty chunk), as the parent
/// commit wrote it: the two record shapes [`EXTENTS`] never holds.
const EDGES: &str = "4455465353544f31\
    20000000022aabed0100000000000000000300000000000000010000000000000000000000616263\
    1a0000004e08210e0300000000000000000300000000000000000000000000000000\
    1d0000001dccd9430100000000000000000500000000000000000000000000000000000000";

#[test]
fn a_truncate_without_a_trim_and_an_empty_put_are_pinned_byte_for_byte() {
    let dir = tmp("edges");
    let mut e = FileEngine::open(&dir, FsyncPolicy::None).unwrap();
    e.write(3, 1, 0, b"abc").unwrap();
    e.truncate(3, 0, None).unwrap();
    e.write(5, 0, 0, b"").unwrap();
    e.sync().unwrap();
    drop(e);
    assert_eq!(std::fs::read(dir.join("extents.dat")).unwrap(), unhex(EDGES));
    std::fs::remove_dir_all(&dir).unwrap();
    // And the parent's bytes replay to the same state.
    let dir = tmp("edges-open");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("extents.dat"), unhex(EDGES)).unwrap();
    let e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
    assert_eq!(e.last_stripe(3), None, "truncated away");
    assert_eq!(e.last_stripe(5), Some((0, 0)), "an empty chunk is still a chunk");
    assert_eq!(e.bytes_stored(), 0);
    drop(e);
    std::fs::remove_dir_all(&dir).unwrap();
}
