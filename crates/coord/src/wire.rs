//! The layout of every message that crosses a socket between coordination
//! processes, declared once with [`dufs_net::wire!`]: the replication
//! traffic ([`CoordMsg`]; the [`ZabMsg`] family is declared beside its type
//! in `dufs-zab`) and the client session protocol ([`ClientFrame`] /
//! [`ServerFrame`]), with the codecs of their `dufs-zkstore` fields.
//!
//! Little-endian and length-prefixed; every count is bounded by the
//! remaining input before allocation and unknown tags are a [`WireError`]
//! — malformed bytes never panic and never produce a silently wrong value
//! (the round-trip and corruption property tests of `tests/prop_wire.rs`;
//! `tests/frame_golden.rs` pins every layout byte for byte).
//!
//! Enum tags start at 1 so an accidentally zeroed buffer cannot alias a
//! real message. A new variant is one line with a new tag.

use std::marker::PhantomData;

use dufs_net::{put_nested, Nested};
// The codec, for the layouts of crates above this one (the znode data
// field) that reach `dufs-net` only through here. Beside the messages, not
// at the crate root: `dufs_net::wire` names both the macro and its module.
pub use dufs_net::{wire, Codec, RestStr, Wire, WireCursor, WireError};
use dufs_zab::{Data, PeerId, ZabMsg};
use dufs_zkstore::{CreateMode, MultiOp, MultiResult, Stat, ZkError};

use crate::api::{LeaseGrant, ZkRequest, ZkResponse};
use crate::runtime::ServerStatus;
use crate::server::CoordMsg;
use crate::txn::{Txn, TxnOp};
use crate::watch::{WatchEventKind, WatchNotification};

// ---------------------------------------------------------------------
// Replication traffic
// ---------------------------------------------------------------------

wire! {
    CoordMsg {
        1 => Zab { 0: ZabMsg<Txn> },
        2 => Forward = Forwarded,
        // Tags 3/4 were SyncRequest/SyncReply, retired when `sync` became
        // a no-op proposal riding the Forward path; kept unassigned so old
        // frames fail loudly as BadTag.
        5 => ForwardReject { tag: u64 },
        6 => LeaseAuth { commit_to: u64, age_ms: u32 },
    }
}

/// [`CoordMsg::Forward`]'s layout: a [`Txn`] with a zero commit time (the
/// leader stamps the real one), in place behind its length like the txns
/// of a proposal.
pub(crate) struct Forwarded;

impl<'a> Codec<'a> for Forwarded {
    type Value = CoordMsg;
    const MIN: usize = <Nested<Txn> as Codec<'a>>::MIN;
    fn put(m: &CoordMsg, buf: &mut Vec<u8>) {
        let CoordMsg::Forward { session, op, origin, tag } = m else {
            unreachable!("the CoordMsg declaration routes only Forward here")
        };
        // `Txn`'s declared field order, with `time_ns: 0`.
        put_nested(buf, |buf| {
            u64::put(session, buf);
            PeerId::put(origin, buf);
            u64::put(tag, buf);
            u64::put(&0, buf);
            TxnOp::put(op, buf);
        });
    }
    fn get(c: &mut WireCursor<'a>) -> Result<CoordMsg, WireError> {
        let t = Nested::<Txn>::get(c)?;
        if t.time_ns != 0 {
            return Err(WireError::Invalid("forwarded txn carries a commit time"));
        }
        Ok(CoordMsg::Forward { session: t.session, op: t.op, origin: t.origin, tag: t.tag })
    }
}

// ---------------------------------------------------------------------
// Client session traffic
// ---------------------------------------------------------------------

wire! {
    ZkRequest {
        1 => Connect,
        2 => CloseSession,
        3 => Create { path: String, data: Data, mode: WireMode },
        4 => Delete { path: String, version: Option<u32> },
        5 => SetData { path: String, data: Data, version: Option<u32> },
        6 => GetData { path: String, watch: bool },
        7 => Exists { path: String, watch: bool },
        8 => GetChildren { path: String, watch: bool },
        9 => GetChildrenData { path: String },
        10 => Multi { ops: Vec<MultiOpCodec<WireMode>> },
        11 => Sync,
        12 => Ping,
        13 => CreatePath { path: String, data: Data, mode: WireMode },
        14 => TxnPrepare {
            txn_id: u64,
            ops: Vec<MultiOpCodec<WireMode>>,
            participants: Vec<u32>,
        },
        15 => TxnCommit { txn_id: u64 },
        16 => TxnAbort { txn_id: u64 },
        17 => WarmChildren { path: String },
    }
}

/// One `(name, data, stat)` entry of a batched directory listing.
type Entry = (String, Data, StatCodec);

wire! {
    ZkResponse {
        1 => Connected { session: u64 },
        2 => Closed,
        3 => Created { path: String },
        4 => Deleted,
        5 => Stat { 0: StatCodec },
        6 => Data { data: Data, stat: StatCodec },
        7 => ExistsResult { 0: Option<StatCodec> },
        8 => Children { names: Vec<String>, stat: StatCodec },
        9 => ChildrenData { entries: Vec<Entry> },
        10 => MultiResults { 0: Vec<MultiResultCodec> },
        11 => Synced { zxid: u64 },
        12 => Pong { zxid: u64, lease: Option<LeaseGrant> },
        13 => Error { 0: ZkErrorCodec },
        14 => Prepared,
        15 => Committed,
        16 => Aborted,
        17 => TxnUnknown,
        18 => WarmedChildren { entries: Vec<Entry>, stat: StatCodec },
    }
}

wire! { LeaseGrant { ttl_ms: u32, epoch: u32 } }

wire! { WatchNotification { path: String, event: WatchEventKind } }

wire! { WatchEventKind { 1 => Created, 2 => Deleted, 3 => DataChanged, 4 => ChildrenChanged } }

wire! {
    ServerStatus {
        is_leader: bool,
        last_applied: u64,
        committed: u64,
        node_count: AsU64,
        digest: u64,
        alive: bool,
    }
}

/// A `usize` count carried as a `u64`, so the layout does not depend on
/// the word size of either end.
pub(crate) struct AsU64;

impl<'a> Codec<'a> for AsU64 {
    type Value = usize;
    const MIN: usize = 8;
    fn put(v: &usize, buf: &mut Vec<u8>) {
        u64::put(&(*v as u64), buf);
    }
    fn get(c: &mut WireCursor<'a>) -> Result<usize, WireError> {
        Ok(c.u64()? as usize)
    }
}

// ---------------------------------------------------------------------
// The `dufs-zkstore` fields (foreign types: each layout is a named codec)
// ---------------------------------------------------------------------

/// [`Stat`]'s layout.
pub(crate) struct StatCodec;

wire! {
    Stat as StatCodec {
        czxid: u64,
        mzxid: u64,
        pzxid: u64,
        ctime_ns: u64,
        mtime_ns: u64,
        version: u32,
        cversion: u32,
        ephemeral_owner: u64,
        data_length: u32,
        num_children: u32,
    }
}

/// [`ZkError`]'s layout.
pub struct ZkErrorCodec;

wire! {
    ZkError as ZkErrorCodec {
        1 => NoNode,
        2 => NodeExists,
        3 => NotEmpty,
        4 => BadVersion,
        5 => NoChildrenForEphemerals,
        6 => InvalidPath,
        7 => SessionExpired,
        8 => ConnectionLoss,
        9 => RootReadOnly,
        10 => CorruptSnapshot,
        11 => Net,
        12 => TxnBusy,
    }
}

/// [`CreateMode`] on the wire (the log's is `crate::txn::LogMode`).
pub struct WireMode;

wire! {
    CreateMode as WireMode {
        1 => Persistent,
        2 => Ephemeral,
        3 => PersistentSequential,
        4 => EphemeralSequential,
    }
}

/// [`MultiOp`]'s layout, with its create mode in `M`'s: the wire's in a
/// request, the log's in a replicated txn.
pub struct MultiOpCodec<M>(PhantomData<M>);

wire! {
    [M: Codec<'a, Value = CreateMode>] MultiOp as MultiOpCodec<M> {
        1 => Create { path: String, data: Data, mode: M },
        2 => Delete { path: String, version: Option<u32> },
        3 => SetData { path: String, data: Data, version: Option<u32> },
        4 => Check { path: String, version: Option<u32> },
    }
}

/// [`MultiResult`]'s layout.
pub struct MultiResultCodec;

wire! {
    MultiResult as MultiResultCodec {
        1 => Created { 0: String },
        2 => Deleted,
        3 => Set { 0: StatCodec },
        4 => Checked,
    }
}

// ---------------------------------------------------------------------
// Socket session framing
// ---------------------------------------------------------------------

/// What a client (or admin probe) sends the server inside one transport
/// frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientFrame {
    /// A session request; the response echoes `req_id`.
    Request {
        /// Client-local request id (multiplexing key).
        req_id: u64,
        /// The session the request belongs to (0 before `Connect`).
        session: u64,
        /// The request.
        req: ZkRequest,
    },
    /// Admin probe: report this server's [`ServerStatus`].
    Status {
        /// Echoed in the reply.
        req_id: u64,
    },
}

wire! {
    ClientFrame {
        1 => Request { req_id: u64, session: u64, req: ZkRequest },
        2 => Status { req_id: u64 },
    }
}

/// What the server sends back to a client connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerFrame {
    /// Response to a [`ClientFrame::Request`].
    Resp {
        /// Echo of the request id.
        req_id: u64,
        /// The response.
        resp: ZkResponse,
    },
    /// Asynchronous watch notification.
    Watch(WatchNotification),
    /// Response to a [`ClientFrame::Status`] probe.
    Status {
        /// Echo of the request id.
        req_id: u64,
        /// The server's state snapshot.
        status: ServerStatus,
    },
}

wire! {
    ServerFrame {
        1 => Resp { req_id: u64, resp: ZkResponse },
        2 => Watch { 0: WatchNotification },
        3 => Status { req_id: u64, status: ServerStatus },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dufs_net::Wire;
    use dufs_zab::Zxid;

    fn rt<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes).unwrap(), v, "round trip");
    }

    #[test]
    fn zab_messages_round_trip() {
        let txn = Txn {
            session: 7,
            op: TxnOp::Create {
                path: "/a/b".into(),
                data: Bytes::from_static(b"x"),
                mode: CreateMode::Persistent,
            },
            origin: PeerId(2),
            tag: 9,
            time_ns: 123,
        };
        rt(ZabMsg::Propose { zxid: Zxid::new(3, 4), txns: vec![txn.clone()] });
        rt(ZabMsg::<Txn>::SyncLog {
            epoch: 5,
            snapshot: Some((Zxid::new(1, 2), Bytes::from_static(b"snap"))),
            entries: vec![(Zxid::new(1, 3), txn)],
            commit_to: Zxid::new(1, 3),
            reset: true,
            snap_chunks: 0,
        });
        rt(ZabMsg::<Txn>::SnapChunk {
            epoch: 5,
            zxid: Zxid::new(1, 2),
            seq: 1,
            total: 3,
            crc: 0xDEAD_BEEF,
            data: Bytes::from_static(b"chunk"),
        });
        rt(ZabMsg::<Txn>::Pong);
    }

    #[test]
    fn forward_round_trips_via_txn_codec() {
        rt(CoordMsg::Forward {
            session: 42,
            op: TxnOp::Delete { path: "/x".into(), version: Some(3) },
            origin: PeerId(1),
            tag: 77,
        });
    }

    #[test]
    fn responses_round_trip() {
        rt(ZkResponse::ChildrenData {
            entries: vec![("f0".into(), Bytes::from_static(b"d"), Stat::default())],
        });
        rt(ZkResponse::Error(ZkError::Net));
        rt(ZkResponse::ExistsResult(None));
    }

    #[test]
    fn warm_children_round_trips() {
        rt(ZkRequest::WarmChildren { path: "/dir".into() });
        rt(ZkResponse::WarmedChildren { entries: vec![], stat: Stat::default() });
        rt(ZkResponse::WarmedChildren {
            entries: vec![
                ("a".into(), Bytes::from_static(b"da"), Stat::default()),
                ("b".into(), Bytes::new(), Stat::default()),
            ],
            stat: Stat::default(),
        });
    }

    #[test]
    fn frames_round_trip() {
        rt(ClientFrame::Request { req_id: 1, session: 2, req: ZkRequest::Sync });
        rt(ServerFrame::Status {
            req_id: 3,
            status: ServerStatus {
                is_leader: true,
                last_applied: 9,
                committed: 9,
                node_count: 4,
                digest: 0xABCD,
                alive: true,
            },
        });
    }

    #[test]
    fn lease_frames_round_trip() {
        rt(ZkRequest::Sync);
        rt(ZkResponse::Synced { zxid: 42 });
        rt(ZkResponse::Synced { zxid: 0 });
        rt(ZkResponse::Pong { zxid: 7, lease: None });
        rt(ZkResponse::Pong { zxid: 7, lease: Some(LeaseGrant { ttl_ms: 1_500, epoch: 3 }) });
        rt(CoordMsg::LeaseAuth { commit_to: 0xDEAD_BEEF, age_ms: 86 });
    }

    #[test]
    fn txn_2pc_frames_round_trip() {
        rt(ZkRequest::CreatePath {
            path: "/a/b/c".into(),
            data: Bytes::from_static(b"v"),
            mode: CreateMode::Persistent,
        });
        rt(ZkRequest::TxnPrepare {
            txn_id: 0xfeed_f00d,
            ops: vec![
                MultiOp::Check { path: "/src".into(), version: Some(1) },
                MultiOp::Delete { path: "/src".into(), version: Some(1) },
            ],
            participants: vec![1, 2],
        });
        rt(ZkRequest::TxnPrepare { txn_id: 1, ops: vec![], participants: vec![] });
        rt(ZkRequest::TxnCommit { txn_id: 7 });
        rt(ZkRequest::TxnAbort { txn_id: u64::MAX });
        rt(ZkResponse::Prepared);
        rt(ZkResponse::Committed);
        rt(ZkResponse::Aborted);
        rt(ZkResponse::TxnUnknown);
        rt(ZkResponse::Error(ZkError::TxnBusy));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(ZkRequest::from_wire(&[99]), Err(WireError::BadTag(99))));
        assert!(matches!(CoordMsg::from_wire(&[0]), Err(WireError::BadTag(0))));
    }
}
