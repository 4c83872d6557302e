//! Replicated transactions — the payload type carried by the ZAB log.
//!
//! Every mutation a client issues is converted (at the leader) into a
//! [`Txn`] before proposal, so every replica applies *identical* inputs:
//! the leader stamps the wall-clock used for ctime/mtime, and sequential
//! names/results are computed deterministically at apply time on each
//! replica.
//!
//! A txn's layout is declared once, below, with [`dufs_net::wire!`]: the
//! write-ahead log stores that record, and a proposal carries the same
//! bytes in place behind a length — one canonical byte form on disk and on
//! the wire.

use bytes::Bytes;

use dufs_net::{wire, Wire};
use dufs_zab::{Data, PeerId};
use dufs_zkstore::{CreateMode, MultiOp, ZkError, ZkResult};

use crate::api::ZkRequest;
use crate::wire::MultiOpCodec;

/// The mutation kinds that get replicated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOp {
    /// Create a znode.
    Create {
        /// Requested path.
        path: String,
        /// Payload.
        data: Bytes,
        /// Create mode.
        mode: CreateMode,
    },
    /// Delete a znode.
    Delete {
        /// Path.
        path: String,
        /// Conditional version.
        version: Option<u32>,
    },
    /// Replace a znode's payload.
    SetData {
        /// Path.
        path: String,
        /// New payload.
        data: Bytes,
        /// Conditional version.
        version: Option<u32>,
    },
    /// Atomic multi-op.
    Multi {
        /// Operations.
        ops: Vec<MultiOp>,
    },
    /// Register a session (so every replica can later clean up its
    /// ephemerals).
    CreateSession {
        /// The new session id.
        session: u64,
    },
    /// Close a session and delete its ephemerals.
    CloseSession {
        /// The session id.
        session: u64,
    },
    /// A leader-issued no-op used by `sync` barriers.
    Noop,
    /// Create a znode, materializing any missing ancestors first. Sharded
    /// deployments route creates by hash of the parent directory, so the
    /// owning shard may never have seen the ancestor chain.
    CreatePath {
        /// Requested path.
        path: String,
        /// Payload.
        data: Bytes,
        /// Create mode.
        mode: CreateMode,
    },
    /// Phase one of a cross-shard transaction: validate `ops` against the
    /// current tree, then fence their paths and persist the prepared ops
    /// (as a `/__txn/<id>` marker znode) until a decision arrives. The
    /// participant list rides in the marker so a recovery agent that finds
    /// an orphaned prepare knows every shard the decision must reach.
    Prepare2pc {
        /// Coordinator-chosen globally unique transaction id.
        txn_id: u64,
        /// This shard's slice of the transaction.
        ops: Vec<MultiOp>,
        /// All participating shards (ascending shard ids).
        participants: Vec<u32>,
    },
    /// Decision: apply the prepared ops of `txn_id` and drop its fences.
    /// A decision for an id with no prepared slice answers `TxnUnknown`
    /// without mutating anything — the slice was already decided here.
    Commit2pc {
        /// Transaction id.
        txn_id: u64,
    },
    /// Decision: discard the prepared ops of `txn_id` and drop its fences.
    /// Answers `TxnUnknown` like [`TxnOp::Commit2pc`] when nothing is
    /// prepared under the id.
    Abort2pc {
        /// Transaction id.
        txn_id: u64,
    },
}

impl TxnOp {
    /// The operation replicated for a client mutation that maps onto one
    /// 1:1 (`session` is the requesting session, for `CloseSession`).
    /// `None` for the requests that do not: reads, and `Sync` and `Connect`,
    /// whose ops (a no-op of its own, a freshly minted session id) the
    /// server makes up itself.
    pub fn from_request(req: ZkRequest, session: u64) -> Option<TxnOp> {
        Some(match req {
            ZkRequest::Create { path, data, mode } => TxnOp::Create { path, data, mode },
            ZkRequest::Delete { path, version } => TxnOp::Delete { path, version },
            ZkRequest::SetData { path, data, version } => TxnOp::SetData { path, data, version },
            ZkRequest::Multi { ops } => TxnOp::Multi { ops },
            ZkRequest::CreatePath { path, data, mode } => TxnOp::CreatePath { path, data, mode },
            ZkRequest::CloseSession => TxnOp::CloseSession { session },
            ZkRequest::TxnPrepare { txn_id, ops, participants } => {
                TxnOp::Prepare2pc { txn_id, ops, participants }
            }
            ZkRequest::TxnCommit { txn_id } => TxnOp::Commit2pc { txn_id },
            ZkRequest::TxnAbort { txn_id } => TxnOp::Abort2pc { txn_id },
            ZkRequest::GetData { .. }
            | ZkRequest::Exists { .. }
            | ZkRequest::GetChildren { .. }
            | ZkRequest::GetChildrenData { .. }
            | ZkRequest::WarmChildren { .. }
            | ZkRequest::Ping
            | ZkRequest::Sync
            | ZkRequest::Connect => return None,
        })
    }
}

/// One replicated transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Txn {
    /// Session on whose behalf the mutation runs (ephemeral ownership).
    pub session: u64,
    /// The mutation.
    pub op: TxnOp,
    /// Which server originated the request (that server replies to its
    /// client when the txn commits).
    pub origin: PeerId,
    /// Origin-server-local tag identifying the pending client request.
    pub tag: u64,
    /// Leader-assigned wall clock (nanoseconds) used for all Stat
    /// timestamps, keeping replicas bit-identical.
    pub time_ns: u64,
}

// ----------------------------------------------------------------------
// Layout (the write-ahead log's record)
// ----------------------------------------------------------------------
//
// The WAL frames each record with a CRC, so this layout only needs to be
// unambiguous; still, every decode is bounds-checked and malformed input
// returns `ZkError::CorruptSnapshot` (never a panic) so CRC-valid-but-
// impossible bytes fail recovery loudly. The op tags are the log's own,
// not `ZkRequest`'s: logs written by an older build must replay.

wire! { Txn { session: u64, origin: PeerId, tag: u64, time_ns: u64, op: TxnOp } }

wire! {
    TxnOp {
        1 => Create { path: String, data: Data, mode: LogMode },
        2 => Delete { path: String, version: Option<u32> },
        3 => SetData { path: String, data: Data, version: Option<u32> },
        4 => Multi { ops: Vec<MultiOpCodec<LogMode>> },
        5 => CreateSession { session: u64 },
        6 => CloseSession { session: u64 },
        7 => Noop,
        8 => CreatePath { path: String, data: Data, mode: LogMode },
        9 => Prepare2pc { txn_id: u64, ops: Vec<MultiOpCodec<LogMode>>, participants: Vec<u32> },
        10 => Commit2pc { txn_id: u64 },
        11 => Abort2pc { txn_id: u64 },
    }
}

/// [`CreateMode`] in the log: the wire's byte ([`crate::wire::WireMode`])
/// minus one, because the record format predates the wire rule that tags
/// start at 1.
pub struct LogMode;

wire! {
    CreateMode as LogMode {
        0 => Persistent,
        1 => Ephemeral,
        2 => PersistentSequential,
        3 => EphemeralSequential,
    }
}

impl Txn {
    /// Serialize for the write-ahead log.
    pub fn encode(&self) -> Bytes {
        Bytes::from(self.to_wire())
    }

    /// Deserialize a WAL record payload. Malformed or trailing bytes are
    /// [`ZkError::CorruptSnapshot`].
    pub fn decode(raw: &[u8]) -> ZkResult<Txn> {
        Txn::from_wire(raw).map_err(|_| ZkError::CorruptSnapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_is_cloneable_for_the_log() {
        let t = Txn {
            session: 7,
            op: TxnOp::Create {
                path: "/x".into(),
                data: Bytes::from_static(b"d"),
                mode: CreateMode::Persistent,
            },
            origin: PeerId(2),
            tag: 99,
            time_ns: 123,
        };
        assert_eq!(t.clone(), t);
    }

    fn roundtrip(t: &Txn) {
        let enc = t.encode();
        assert_eq!(&Txn::decode(&enc).expect("round trip"), t);
    }

    #[test]
    fn codec_round_trips_every_op_kind() {
        let base = |op| Txn { session: 0xdead_beef, op, origin: PeerId(3), tag: 42, time_ns: 7 };
        roundtrip(&base(TxnOp::Create {
            path: "/a/b".into(),
            data: Bytes::from_static(b"payload"),
            mode: CreateMode::EphemeralSequential,
        }));
        roundtrip(&base(TxnOp::Delete { path: "/x".into(), version: Some(9) }));
        roundtrip(&base(TxnOp::Delete { path: "/x".into(), version: None }));
        roundtrip(&base(TxnOp::SetData {
            path: "/x".into(),
            data: Bytes::new(),
            version: Some(0),
        }));
        roundtrip(&base(TxnOp::Multi {
            ops: vec![
                MultiOp::Create {
                    path: "/new".into(),
                    data: Bytes::from_static(b"fid"),
                    mode: CreateMode::Persistent,
                },
                MultiOp::Delete { path: "/old".into(), version: None },
                MultiOp::SetData { path: "/s".into(), data: Bytes::new(), version: Some(2) },
                MultiOp::Check { path: "/c".into(), version: Some(1) },
            ],
        }));
        roundtrip(&base(TxnOp::CreateSession { session: 0xdead_beef }));
        roundtrip(&base(TxnOp::CloseSession { session: 0xdead_beef }));
        roundtrip(&base(TxnOp::Noop));
        roundtrip(&base(TxnOp::CreatePath {
            path: "/deep/a/b".into(),
            data: Bytes::from_static(b"v"),
            mode: CreateMode::Persistent,
        }));
        roundtrip(&base(TxnOp::Prepare2pc {
            txn_id: 0x0123_4567_89ab_cdef,
            ops: vec![
                MultiOp::Check { path: "/src".into(), version: Some(3) },
                MultiOp::Delete { path: "/src".into(), version: Some(3) },
            ],
            participants: vec![0, 3],
        }));
        roundtrip(&base(TxnOp::Prepare2pc { txn_id: 1, ops: vec![], participants: vec![] }));
        roundtrip(&base(TxnOp::Commit2pc { txn_id: u64::MAX }));
        roundtrip(&base(TxnOp::Abort2pc { txn_id: 0 }));
    }

    #[test]
    fn codec_rejects_malformed_input() {
        let t = Txn {
            session: 1,
            op: TxnOp::Create {
                path: "/p".into(),
                data: Bytes::from_static(b"d"),
                mode: CreateMode::Persistent,
            },
            origin: PeerId(0),
            tag: 1,
            time_ns: 1,
        };
        let enc = t.encode();
        // Every strict truncation fails (never panics).
        for cut in 0..enc.len() {
            assert_eq!(Txn::decode(&enc[..cut]), Err(ZkError::CorruptSnapshot), "cut={cut}");
        }
        // Trailing garbage fails.
        let mut long = enc.to_vec();
        long.push(0);
        assert_eq!(Txn::decode(&long), Err(ZkError::CorruptSnapshot));
        // A bad op tag fails.
        let mut bad = enc.to_vec();
        bad[28] = 99; // the op-tag byte (after session+origin+tag+time)
        assert_eq!(Txn::decode(&bad), Err(ZkError::CorruptSnapshot));
    }

    /// The record format is durable: logs written by an older build must
    /// replay. One transaction per op kind, pinned byte for byte.
    #[test]
    fn encoding_is_pinned_byte_for_byte() {
        let golden: Vec<(TxnOp, &str)> = vec![
            (
                TxnOp::Create {
                    path: "/a".into(),
                    data: Bytes::from_static(b"xy"),
                    mode: CreateMode::EphemeralSequential,
                },
                "01020000002f6102000000787903",
            ),
            (TxnOp::Delete { path: "/a".into(), version: Some(9) }, "02020000002f610109000000"),
            (
                TxnOp::SetData { path: "/a".into(), data: Bytes::from_static(b"z"), version: None },
                "03020000002f61010000007a00",
            ),
            (
                TxnOp::Multi {
                    ops: vec![
                        MultiOp::Create {
                            path: "/n".into(),
                            data: Bytes::from_static(b"f"),
                            mode: CreateMode::Ephemeral,
                        },
                        MultiOp::Delete { path: "/o".into(), version: None },
                        MultiOp::SetData {
                            path: "/s".into(),
                            data: Bytes::new(),
                            version: Some(2),
                        },
                        MultiOp::Check { path: "/c".into(), version: Some(1) },
                    ],
                },
                "040400000001020000002f6e01000000660102020000002f6f0003020000002f7300000000\
                 010200000004020000002f630101000000",
            ),
            (TxnOp::CreateSession { session: 0x1122_3344_5566_7788 }, "058877665544332211"),
            (TxnOp::CloseSession { session: 5 }, "060500000000000000"),
            (TxnOp::Noop, "07"),
            (
                TxnOp::CreatePath {
                    path: "/d/e".into(),
                    data: Bytes::from_static(b"v"),
                    mode: CreateMode::PersistentSequential,
                },
                "08040000002f642f65010000007602",
            ),
            (
                TxnOp::Prepare2pc {
                    txn_id: 0x0123_4567_89ab_cdef,
                    ops: vec![MultiOp::Check { path: "/p".into(), version: None }],
                    participants: vec![0, 3],
                },
                "09efcdab89674523010100000004020000002f7000020000000000000003000000",
            ),
            (TxnOp::Commit2pc { txn_id: u64::MAX }, "0affffffffffffffff"),
            (TxnOp::Abort2pc { txn_id: 1 }, "0b0100000000000000"),
        ];
        // session | origin | tag | time_ns, then the op.
        let header = "0807060504030201030000002a000000000000000700000000000000";
        for (op, want) in golden {
            let t =
                Txn { session: 0x0102_0304_0506_0708, op, origin: PeerId(3), tag: 42, time_ns: 7 };
            let hex: String = t.encode().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, format!("{header}{want}"), "{:?}", t.op);
            roundtrip(&t);
        }
    }
}
