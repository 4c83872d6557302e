//! Golden bytes for every message that crosses a coordination socket. The
//! client-connection frames (`ClientFrame::{Request, Status}` and
//! `ServerFrame::{Resp, Watch, Status}`), every peer frame (`CoordMsg`, each
//! `ZabMsg` included) and every request, response, multi op, multi result,
//! error code, create mode and watch event are pinned here byte for byte,
//! so a codec change that moves any of them fails loudly instead of
//! silently breaking a peer built from another commit.

use bytes::Bytes;
use dufs_coord::runtime::ServerStatus;
use dufs_coord::watch::WatchEventKind;
use dufs_coord::{
    ClientFrame, CoordMsg, LeaseGrant, ServerFrame, Txn, TxnOp, WatchNotification, ZkRequest,
    ZkResponse,
};
use dufs_net::Wire;
use dufs_zab::{PeerId, Vote, ZabMsg, Zxid};
use dufs_zkstore::{CreateMode, MultiOp, MultiResult, Stat, ZkError};

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

// ----------------------------------------------------------------------
// Peer frames and every remaining message value
// ----------------------------------------------------------------------

fn txn(op: TxnOp, time_ns: u64) -> Txn {
    Txn { session: 0x0102_0304_0506_0708, op, origin: PeerId(3), tag: 42, time_ns }
}

fn stat() -> Stat {
    Stat {
        czxid: 0x0000_0001_0000_0002,
        mzxid: 0x0000_0001_0000_0003,
        pzxid: 0x0000_0001_0000_0004,
        ctime_ns: 5,
        mtime_ns: 6,
        version: 7,
        cversion: 8,
        ephemeral_owner: 0x0a0b,
        data_length: 1,
        num_children: 2,
    }
}

/// Every replication message a coordination server sends its peers: each
/// ZAB message (a proposal batch and a sync log carry their txns in the
/// WAL record form, behind a length), a forwarded mutation (a txn with a
/// zero commit time), its rejection and the leader's lease authority.
#[test]
fn peer_frames_are_pinned_byte_for_byte() {
    let zab = |m: ZabMsg<Txn>| CoordMsg::Zab(m);
    let z = Zxid::new(2, 5);
    let create = || TxnOp::Create {
        path: "/a".into(),
        data: Bytes::from_static(b"xy"),
        mode: CreateMode::Ephemeral,
    };
    let vote = Vote { candidate: PeerId(2), candidate_zxid: z, round: 9 };
    let cases = [
        (
            zab(ZabMsg::Notification { vote, established: Some(PeerId(1)) }),
            "010102000000020000000500000009000000000000000101000000",
        ),
        (
            zab(ZabMsg::Notification { vote, established: None }),
            "0101020000000200000005000000090000000000000000",
        ),
        (
            zab(ZabMsg::FollowerInfo { last_zxid: z, accepted_epoch: 3 }),
            "0102020000000500000003000000",
        ),
        (
            zab(ZabMsg::SyncLog {
                epoch: 4,
                snapshot: Some((z, Bytes::from_static(b"snap"))),
                entries: vec![(Zxid::new(2, 6), txn(TxnOp::Noop, 11))],
                commit_to: Zxid::new(2, 6),
                reset: true,
                snap_chunks: 0,
            }),
            "01030400000001020000000500000004000000736e61700100000002000000060000001d00000008\
             07060504030201030000002a000000000000000b0000000000000007020000000600000001000000\
             00",
        ),
        (
            zab(ZabMsg::SyncLog {
                epoch: 4,
                snapshot: None,
                entries: vec![],
                commit_to: z,
                reset: false,
                snap_chunks: 3,
            }),
            "010304000000000000000002000000050000000003000000",
        ),
        (
            zab(ZabMsg::SnapChunk {
                epoch: 4,
                zxid: z,
                seq: 1,
                total: 3,
                crc: 0xDEAD_BEEF,
                data: Bytes::from_static(b"chunk"),
            }),
            "01040400000002000000050000000100000003000000efbeadde050000006368756e6b",
        ),
        (zab(ZabMsg::AckSync { epoch: 4 }), "010504000000"),
        (
            zab(ZabMsg::Propose {
                zxid: z,
                txns: vec![
                    txn(create(), 12),
                    txn(TxnOp::Delete { path: "/a".into(), version: Some(1) }, 13),
                ],
            }),
            "01060200000005000000020000002a0000000807060504030201030000002a000000000000000c00\
             00000000000001020000002f6102000000787901280000000807060504030201030000002a000000\
             000000000d0000000000000002020000002f610101000000",
        ),
        (zab(ZabMsg::Ack { zxid: z }), "01070200000005000000"),
        (zab(ZabMsg::Commit { zxid: z }), "01080200000005000000"),
        (
            zab(ZabMsg::Inform { zxid: z, txns: vec![txn(TxnOp::Noop, 14)] }),
            "01090200000005000000010000001d0000000807060504030201030000002a000000000000000e00\
             00000000000007",
        ),
        (zab(ZabMsg::Ping { epoch: 4, commit_to: z }), "010a040000000200000005000000"),
        (zab(ZabMsg::Pong), "010b"),
        (
            CoordMsg::Forward {
                session: 0x0102_0304_0506_0708,
                op: create(),
                origin: PeerId(3),
                tag: 42,
            },
            "022a0000000807060504030201030000002a00000000000000000000000000000001020000002f61\
             02000000787901",
        ),
        (CoordMsg::ForwardReject { tag: 42 }, "052a00000000000000"),
        (
            CoordMsg::LeaseAuth { commit_to: 0x0000_0002_0000_0005, age_ms: 86 },
            "06050000000200000056000000",
        ),
    ];
    for (msg, want) in cases {
        pinned(msg, want);
    }
}

/// Every session request not pinned above, with each create mode and each
/// multi-op kind.
#[test]
fn every_request_is_pinned_byte_for_byte() {
    let p = || "/p".to_string();
    let d = || Bytes::from_static(b"d");
    let ops = vec![
        MultiOp::Create { path: p(), data: d(), mode: CreateMode::Persistent },
        MultiOp::Create { path: p(), data: d(), mode: CreateMode::EphemeralSequential },
        MultiOp::Delete { path: p(), version: None },
        MultiOp::SetData { path: p(), data: d(), version: Some(2) },
        MultiOp::Check { path: p(), version: Some(1) },
    ];
    let cases = [
        (ZkRequest::Connect, "01"),
        (ZkRequest::CloseSession, "02"),
        (
            ZkRequest::Create { path: p(), data: d(), mode: CreateMode::Persistent },
            "03020000002f70010000006401",
        ),
        (
            ZkRequest::Create { path: p(), data: d(), mode: CreateMode::Ephemeral },
            "03020000002f70010000006402",
        ),
        (
            ZkRequest::Create { path: p(), data: d(), mode: CreateMode::EphemeralSequential },
            "03020000002f70010000006404",
        ),
        (ZkRequest::Delete { path: p(), version: Some(9) }, "04020000002f700109000000"),
        (ZkRequest::Delete { path: p(), version: None }, "04020000002f7000"),
        (ZkRequest::SetData { path: p(), data: d(), version: None }, "05020000002f70010000006400"),
        (ZkRequest::GetData { path: p(), watch: false }, "06020000002f7000"),
        (ZkRequest::Exists { path: p(), watch: true }, "07020000002f7001"),
        (ZkRequest::GetChildren { path: p(), watch: true }, "08020000002f7001"),
        (ZkRequest::GetChildrenData { path: p() }, "09020000002f70"),
        (
            ZkRequest::Multi { ops: ops.clone() },
            "0a0500000001020000002f7001000000640101020000002f7001000000640402020000002f700003\
             020000002f700100000064010200000004020000002f700101000000",
        ),
        (ZkRequest::Ping, "0c"),
        (
            ZkRequest::CreatePath { path: p(), data: d(), mode: CreateMode::PersistentSequential },
            "0d020000002f70010000006403",
        ),
        (
            ZkRequest::TxnPrepare { txn_id: 0x0123_4567_89ab_cdef, ops, participants: vec![0, 3] },
            "0eefcdab89674523010500000001020000002f7001000000640101020000002f7001000000640402\
             020000002f700003020000002f700100000064010200000004020000002f70010100000002000000\
             0000000003000000",
        ),
        (ZkRequest::TxnCommit { txn_id: 7 }, "0f0700000000000000"),
        (ZkRequest::TxnAbort { txn_id: 8 }, "100800000000000000"),
        (ZkRequest::WarmChildren { path: p() }, "11020000002f70"),
    ];
    for (req, want) in cases {
        pinned(req, want);
    }
}

/// Every session response not pinned above, with each multi result, each
/// error code and each watch event.
#[test]
fn every_response_is_pinned_byte_for_byte() {
    let entry = || ("f".to_string(), Bytes::from_static(b"d"), stat());
    let cases = [
        (ZkResponse::Connected { session: 0x0102_0304_0506_0708 }, "010807060504030201"),
        (ZkResponse::Closed, "02"),
        (ZkResponse::Deleted, "04"),
        (
            ZkResponse::Stat(stat()),
            "05020000000100000003000000010000000400000001000000050000000000000006000000000000\
             0007000000080000000b0a0000000000000100000002000000",
        ),
        (ZkResponse::ExistsResult(None), "0700"),
        (
            ZkResponse::ExistsResult(Some(stat())),
            "07010200000001000000030000000100000004000000010000000500000000000000060000000000\
             000007000000080000000b0a0000000000000100000002000000",
        ),
        (
            ZkResponse::Children { names: vec!["a".into(), "bc".into()], stat: stat() },
            "08020000000100000061020000006263020000000100000003000000010000000400000001000000\
             0500000000000000060000000000000007000000080000000b0a0000000000000100000002000000",
        ),
        (
            ZkResponse::ChildrenData { entries: vec![entry()] },
            "09010000000100000066010000006402000000010000000300000001000000040000000100000005\
             00000000000000060000000000000007000000080000000b0a0000000000000100000002000000",
        ),
        (
            ZkResponse::MultiResults(vec![
                MultiResult::Created("/p".into()),
                MultiResult::Deleted,
                MultiResult::Set(stat()),
                MultiResult::Checked,
            ]),
            "0a0400000001020000002f7002030200000001000000030000000100000004000000010000000500\
             000000000000060000000000000007000000080000000b0a000000000000010000000200000004",
        ),
        (ZkResponse::Pong { zxid: 7, lease: None }, "0c070000000000000000"),
        (ZkResponse::Prepared, "0e"),
        (ZkResponse::Committed, "0f"),
        (ZkResponse::Aborted, "10"),
        (ZkResponse::TxnUnknown, "11"),
        (
            ZkResponse::WarmedChildren { entries: vec![entry()], stat: stat() },
            "12010000000100000066010000006402000000010000000300000001000000040000000100000005\
             00000000000000060000000000000007000000080000000b0a000000000000010000000200000002\
             00000001000000030000000100000004000000010000000500000000000000060000000000000007\
             000000080000000b0a0000000000000100000002000000",
        ),
    ];
    for (resp, want) in cases {
        pinned(resp, want);
    }
    let errors = [
        (ZkError::NoNode, "0d01"),
        (ZkError::NodeExists, "0d02"),
        (ZkError::NotEmpty, "0d03"),
        (ZkError::BadVersion, "0d04"),
        (ZkError::NoChildrenForEphemerals, "0d05"),
        (ZkError::InvalidPath, "0d06"),
        (ZkError::SessionExpired, "0d07"),
        (ZkError::ConnectionLoss, "0d08"),
        (ZkError::RootReadOnly, "0d09"),
        (ZkError::CorruptSnapshot, "0d0a"),
        (ZkError::Net, "0d0b"),
        (ZkError::TxnBusy, "0d0c"),
    ];
    for (e, want) in errors {
        pinned(ZkResponse::Error(e), want);
    }
    let events = [
        (WatchEventKind::Created, "02020000002f7001"),
        (WatchEventKind::Deleted, "02020000002f7002"),
        (WatchEventKind::ChildrenChanged, "02020000002f7004"),
    ];
    for (event, want) in events {
        pinned(ServerFrame::Watch(WatchNotification { path: "/p".into(), event }), want);
    }
}
