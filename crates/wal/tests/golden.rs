//! Golden bytes: the segments and snapshots a fixed history leaves behind,
//! dumped from the commit before the log's record framing moved into the
//! shared `record` module and pinned here, so a change to how the log
//! builds, scans and seals its records cannot change what it stores — and
//! a log directory written by that older build still reopens to the same
//! recovered state.

use std::path::PathBuf;

use bytes::Bytes;
use dufs_wal::{FileStorage, MemStorage, Recovered, Wal, WalConfig};

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// Small segments, so the history below rotates.
const CFG: WalConfig = WalConfig { segment_bytes: 100 };

/// An epoch and txns over several segments, a reset to a leader's
/// snapshot with entries, more txns over several segments, a checkpoint
/// that drops the segments it covers, and txns after it — every sync taken.
fn fixed_history(wal: &mut Wal) {
    let txns = |wal: &mut Wal, zxids: std::ops::RangeInclusive<u64>| {
        for z in zxids {
            wal.append_txn(z, format!("txn-{z}").as_bytes()).unwrap();
        }
        wal.sync().unwrap();
    };
    wal.append_epoch(0x0102).unwrap();
    txns(wal, 1..=4);
    let entries: Vec<(u64, Bytes)> =
        (11..=12u64).map(|z| (z, Bytes::from(format!("txn-{z}").into_bytes()))).collect();
    wal.reset(Some((10, b"snapshot-at-10")), &entries, 0x0203).unwrap();
    txns(wal, 13..=20);
    wal.checkpoint(15, b"snapshot-at-15").unwrap();
    txns(wal, 21..=22);
}

/// The segments [`fixed_history`] leaves, as the parent commit wrote them:
/// `DUFSWAL1 | id`, then `len | crc | payload` records.
const SEGMENTS: [(u64, &str); 3] = [
    (
        5,
        "4455465357414c3105000000000000000f00000012c700b301100000000000000074786e2d31360f000000\
         f216085901110000000000000074786e2d31370f000000b82ed6b501120000000000000074786e2d3138",
    ),
    (
        6,
        "4455465357414c3106000000000000000f00000058ffde5f01130000000000000074786e2d31390f000000\
         ffbee26801140000000000000074786e2d323005000000fddfd3ad02030200000f0000001f6fea82011500\
         00000000000074786e2d3231",
    ),
    (7, "4455465357414c3107000000000000000f0000007e1b826701160000000000000074786e2d3232"),
];

/// The snapshots it leaves: `DUFSSNP1 | zxid | len | crc | blob`.
const SNAPSHOTS: [(u64, &str); 2] = [
    (10, "44554653534e50310a000000000000000e000000588d703e736e617073686f742d61742d3130"),
    (15, "44554653534e50310f000000000000000e000000d7791a4e736e617073686f742d61742d3135"),
];

/// A `FileStorage` directory written by the parent commit: the same
/// history, then the final segment cut 3 bytes short, as a crash mid-write
/// leaves it.
const DIR: [(&str, &str); 5] = [
    (
        "seg-0000000000000005.wal",
        "4455465357414c3105000000000000000f00000012c700b301100000000000000074786e2d31360f000000\
         f216085901110000000000000074786e2d31370f000000b82ed6b501120000000000000074786e2d3138",
    ),
    (
        "seg-0000000000000006.wal",
        "4455465357414c3106000000000000000f00000058ffde5f01130000000000000074786e2d31390f000000\
         ffbee26801140000000000000074786e2d323005000000fddfd3ad02030200000f0000001f6fea82011500\
         00000000000074786e2d3231",
    ),
    (
        "seg-0000000000000007.wal",
        "4455465357414c3107000000000000000f0000007e1b826701160000000000000074786e",
    ),
    (
        "snap-000000000000000a.bin",
        "44554653534e50310a000000000000000e000000588d703e736e617073686f742d61742d3130",
    ),
    (
        "snap-000000000000000f.bin",
        "44554653534e50310f000000000000000e000000d7791a4e736e617073686f742d61742d3135",
    ),
];

/// The state [`fixed_history`] recovers to, up to txn `last`: the
/// checkpoint dropped the segment holding the reset (its snapshot stays),
/// the epoch was re-logged beside the checkpoint, and the txns above 15
/// survive.
fn assert_recovered(rec: &Recovered, last: u64, torn: bool) {
    assert_eq!(rec.epoch, 0x0203);
    assert_eq!(rec.reset_snapshot_zxid, 0);
    let entries: Vec<(u64, Bytes)> =
        (16..=last).map(|z| (z, Bytes::from(format!("txn-{z}").into_bytes()))).collect();
    assert_eq!(rec.entries, entries);
    let snaps = [(15, &b"snapshot-at-15"[..]), (10, &b"snapshot-at-10"[..])];
    assert_eq!(rec.snapshots.iter().map(|(z, b)| (*z, &b[..])).collect::<Vec<_>>(), snaps);
    assert_eq!(rec.torn_tail, torn);
}

#[test]
fn segments_and_snapshots_of_a_fixed_history_are_pinned_byte_for_byte() {
    let (mut wal, _) = Wal::open(Box::new(MemStorage::new()), CFG).unwrap();
    fixed_history(&mut wal);
    let mut s = wal.into_storage();
    let segs: Vec<(u64, String)> = s
        .list_segments()
        .unwrap()
        .into_iter()
        .map(|id| (id, hex(&s.read_segment(id).unwrap())))
        .collect();
    let snaps: Vec<(u64, String)> = s
        .list_snapshots()
        .unwrap()
        .into_iter()
        .map(|z| (z, hex(&s.read_snapshot(z).unwrap())))
        .collect();
    let want = |g: &[(u64, &str)]| g.iter().map(|&(i, h)| (i, h.to_string())).collect::<Vec<_>>();
    assert_eq!(segs, want(&SEGMENTS), "segments");
    assert_eq!(snaps, want(&SNAPSHOTS), "snapshots");
    // And they reopen to the history's state.
    let (_, rec) = Wal::open(s, CFG).unwrap();
    assert_recovered(&rec, 22, false);
}

#[test]
fn a_directory_written_by_the_parent_reopens_to_the_same_state() {
    let dir: PathBuf = std::env::temp_dir().join(format!("dufs-wal-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, h) in DIR {
        std::fs::write(dir.join(name), unhex(h)).unwrap();
    }
    let (mut wal, rec) = Wal::open(Box::new(FileStorage::new(&dir).unwrap()), CFG).unwrap();
    assert_recovered(&rec, 21, true);
    // The cut tail is gone for good: once the reopened log is synced (as a
    // server does before it serves), a second reopen finds a clean log.
    wal.sync().unwrap();
    let rec = wal.reopen().unwrap();
    assert_recovered(&rec, 21, false);
    std::fs::remove_dir_all(&dir).unwrap();
}
