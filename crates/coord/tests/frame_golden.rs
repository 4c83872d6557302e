//! Golden bytes for the client-connection frames. Every frame a session or
//! an admin probe sends (`ClientFrame::{Request, Status}`) and every frame a
//! server answers with (`ServerFrame::{Resp, Watch, Status}`) is pinned
//! here byte for byte, so a codec change that moves any of them fails
//! loudly instead of silently breaking a peer built from another commit.

use bytes::Bytes;
use dufs_coord::runtime::ServerStatus;
use dufs_coord::watch::WatchEventKind;
use dufs_coord::{ClientFrame, LeaseGrant, ServerFrame, WatchNotification, ZkRequest, ZkResponse};
use dufs_net::Wire;
use dufs_zkstore::{CreateMode, Stat};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `frame` encodes to `expected` (hex) and decodes back to itself.
fn pinned<T: Wire + PartialEq + std::fmt::Debug>(frame: T, expected: &str) {
    let bytes = frame.to_wire();
    assert_eq!(hex(&bytes), expected, "{frame:?} moved on the wire");
    assert_eq!(T::from_wire(&bytes).unwrap(), frame, "{frame:?} does not round-trip");
}

#[test]
fn client_frames_are_pinned_byte_for_byte() {
    pinned(
        ClientFrame::Request {
            req_id: 7,
            session: 0x1122_3344_5566_7788,
            req: ZkRequest::SetData {
                path: "/a/b".into(),
                data: Bytes::from_static(b"xy"),
                version: Some(3),
            },
        },
        "010700000000000000887766554433221105040000002f612f620200000078790103000000",
    );
    pinned(ClientFrame::Status { req_id: 9 }, "020900000000000000");
}

#[test]
fn server_frames_are_pinned_byte_for_byte() {
    pinned(
        ServerFrame::Resp {
            req_id: 7,
            resp: ZkResponse::Pong {
                zxid: 42,
                lease: Some(LeaseGrant { ttl_ms: 1_800, epoch: 3 }),
            },
        },
        "0107000000000000000c2a00000000000000010807000003000000",
    );
    pinned(
        ServerFrame::Watch(WatchNotification {
            path: "/a/b".into(),
            event: WatchEventKind::DataChanged,
        }),
        "02040000002f612f6203",
    );
    pinned(
        ServerFrame::Status {
            req_id: 9,
            status: ServerStatus {
                is_leader: true,
                last_applied: 0x0000_0002_0000_0005,
                committed: 0x0000_0002_0000_0006,
                node_count: 12,
                digest: 0xDEAD_BEEF_0BAD_F00D,
                alive: true,
            },
        },
        "03090000000000000001050000000200000006000000020000000c000000000000000df0ad0befbeadde01",
    );
}

/// The hot-path frames of a metadata op: a create and a read, and their
/// replies. Dumped before `Sync`/`Synced` lost their bool byte, and
/// unchanged by it.
#[test]
fn create_and_read_frames_are_pinned_byte_for_byte() {
    let session = 0x0102_0304_0506_0708;
    pinned(
        ClientFrame::Request {
            req_id: 3,
            session,
            req: ZkRequest::Create {
                path: "/d/f".into(),
                data: Bytes::from_static(b"m"),
                mode: CreateMode::PersistentSequential,
            },
        },
        "010300000000000000080706050403020103040000002f642f66010000006d03",
    );
    pinned(
        ClientFrame::Request {
            req_id: 4,
            session,
            req: ZkRequest::GetData { path: "/d/f".into(), watch: true },
        },
        "010400000000000000080706050403020106040000002f642f6601",
    );
    pinned(
        ServerFrame::Resp {
            req_id: 3,
            resp: ZkResponse::Created { path: "/d/f0000000001".into() },
        },
        "010300000000000000030e0000002f642f6630303030303030303031",
    );
    let stat = Stat {
        czxid: 0x0000_0001_0000_0002,
        mzxid: 0x0000_0001_0000_0003,
        pzxid: 0x0000_0001_0000_0004,
        ctime_ns: 5,
        mtime_ns: 6,
        version: 7,
        cversion: 8,
        ephemeral_owner: 0,
        data_length: 1,
        num_children: 0,
    };
    pinned(
        ServerFrame::Resp {
            req_id: 4,
            resp: ZkResponse::Data { data: Bytes::from_static(b"m"), stat },
        },
        "01040000000000000006010000006d0200000001000000030000000100000004000000010000000500\
         0000000000000600000000000000070000000800000000000000000000000100000000000000",
    );
}

/// A barrier and its reply: tag 11 each way, and no bool byte after it.
#[test]
fn barrier_frames_are_pinned_byte_for_byte() {
    pinned(
        ClientFrame::Request { req_id: 5, session: 0x0102_0304_0506_0708, req: ZkRequest::Sync },
        "01050000000000000008070605040302010b",
    );
    pinned(
        ServerFrame::Resp { req_id: 5, resp: ZkResponse::Synced { zxid: 0x0000_0001_0000_0009 } },
        "0105000000000000000b0900000001000000",
    );
}
