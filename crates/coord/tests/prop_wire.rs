//! Codec-robustness property tests for the coordination-layer wire
//! messages — the companion of `crates/net/tests/prop_frame.rs`, one layer
//! up: every message type that crosses a socket must round-trip bit-exactly
//! through its codec, and corrupt bytes (truncations, bit flips, random
//! garbage) must produce a `WireError`, never a panic and never a silently
//! wrong value.

use bytes::Bytes;
use proptest::prelude::*;

use dufs_coord::runtime::ServerStatus;
use dufs_coord::txn::LogMode;
use dufs_coord::watch::WatchEventKind;
use dufs_coord::wire::{MultiOpCodec, MultiResultCodec, WireMode, ZkErrorCodec};
use dufs_coord::{
    ClientFrame, CoordMsg, LeaseGrant, ServerFrame, Txn, TxnOp, WatchNotification, ZkRequest,
    ZkResponse,
};
use dufs_net::{Codec, Wire};
use dufs_zab::{PeerId, Vote, ZabMsg, Zxid};
use dufs_zkstore::{CreateMode, MultiOp, MultiResult, Stat, ZkError};
use proptest::collection::vec;

// ---------------------------------------------------------------- strategies

fn arb_string() -> BoxedStrategy<String> {
    collection::vec(any::<u8>(), 0..12)
        .prop_map(|v| v.into_iter().map(|b| (b'a' + (b % 26)) as char).collect())
        .boxed()
}

fn arb_bytes() -> BoxedStrategy<Bytes> {
    collection::vec(any::<u8>(), 0..32).prop_map(Bytes::from).boxed()
}

fn arb_zxid() -> BoxedStrategy<Zxid> {
    (any::<u32>(), any::<u32>()).prop_map(|(e, c)| Zxid::new(e, c)).boxed()
}

fn arb_peer() -> BoxedStrategy<PeerId> {
    any::<u32>().prop_map(PeerId).boxed()
}

fn arb_mode() -> BoxedStrategy<CreateMode> {
    prop_oneof![
        Just(CreateMode::Persistent),
        Just(CreateMode::Ephemeral),
        Just(CreateMode::PersistentSequential),
        Just(CreateMode::EphemeralSequential),
    ]
    .boxed()
}

fn arb_version() -> BoxedStrategy<Option<u32>> {
    option::of(any::<u32>()).boxed()
}

fn arb_stat() -> BoxedStrategy<Stat> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u32>(), any::<u32>()),
    )
        .prop_map(|((czxid, mzxid, pzxid, ctime_ns, mtime_ns), rest)| {
            let (version, cversion, ephemeral_owner, data_length, num_children) = rest;
            Stat {
                czxid,
                mzxid,
                pzxid,
                ctime_ns,
                mtime_ns,
                version,
                cversion,
                ephemeral_owner,
                data_length,
                num_children,
            }
        })
        .boxed()
}

fn arb_zk_error() -> BoxedStrategy<ZkError> {
    prop_oneof![
        Just(ZkError::NoNode),
        Just(ZkError::NodeExists),
        Just(ZkError::NotEmpty),
        Just(ZkError::BadVersion),
        Just(ZkError::NoChildrenForEphemerals),
        Just(ZkError::InvalidPath),
        Just(ZkError::SessionExpired),
        Just(ZkError::ConnectionLoss),
        Just(ZkError::RootReadOnly),
        Just(ZkError::CorruptSnapshot),
        Just(ZkError::Net),
        Just(ZkError::TxnBusy),
    ]
    .boxed()
}

fn arb_multi_op() -> BoxedStrategy<MultiOp> {
    prop_oneof![
        (arb_string(), arb_bytes(), arb_mode()).prop_map(|(path, data, mode)| MultiOp::Create {
            path,
            data,
            mode
        }),
        (arb_string(), arb_version()).prop_map(|(path, version)| MultiOp::Delete { path, version }),
        (arb_string(), arb_bytes(), arb_version())
            .prop_map(|(path, data, version)| MultiOp::SetData { path, data, version }),
        (arb_string(), arb_version()).prop_map(|(path, version)| MultiOp::Check { path, version }),
    ]
    .boxed()
}

fn arb_multi_result() -> BoxedStrategy<MultiResult> {
    prop_oneof![
        arb_string().prop_map(MultiResult::Created),
        Just(MultiResult::Deleted),
        arb_stat().prop_map(MultiResult::Set),
        Just(MultiResult::Checked),
    ]
    .boxed()
}

fn arb_txn_op() -> BoxedStrategy<TxnOp> {
    prop_oneof![
        (arb_string(), arb_bytes(), arb_mode()).prop_map(|(path, data, mode)| TxnOp::Create {
            path,
            data,
            mode
        }),
        (arb_string(), arb_version()).prop_map(|(path, version)| TxnOp::Delete { path, version }),
        (arb_string(), arb_bytes(), arb_version())
            .prop_map(|(path, data, version)| TxnOp::SetData { path, data, version }),
        collection::vec(arb_multi_op(), 0..4).prop_map(|ops| TxnOp::Multi { ops }),
        any::<u64>().prop_map(|session| TxnOp::CreateSession { session }),
        any::<u64>().prop_map(|session| TxnOp::CloseSession { session }),
        Just(TxnOp::Noop),
        (arb_string(), arb_bytes(), arb_mode()).prop_map(|(path, data, mode)| TxnOp::CreatePath {
            path,
            data,
            mode
        }),
        (any::<u64>(), collection::vec(arb_multi_op(), 0..4), collection::vec(any::<u32>(), 0..4))
            .prop_map(|(txn_id, ops, participants)| TxnOp::Prepare2pc {
                txn_id,
                ops,
                participants
            }),
        any::<u64>().prop_map(|txn_id| TxnOp::Commit2pc { txn_id }),
        any::<u64>().prop_map(|txn_id| TxnOp::Abort2pc { txn_id }),
    ]
    .boxed()
}

fn arb_txn() -> BoxedStrategy<Txn> {
    (any::<u64>(), arb_txn_op(), arb_peer(), any::<u64>(), any::<u64>())
        .prop_map(|(session, op, origin, tag, time_ns)| Txn { session, op, origin, tag, time_ns })
        .boxed()
}

fn arb_entries() -> BoxedStrategy<Vec<(Zxid, Txn)>> {
    collection::vec((arb_zxid(), arb_txn()), 0..4).boxed()
}

fn arb_vote() -> BoxedStrategy<Vote> {
    (arb_peer(), arb_zxid(), any::<u64>())
        .prop_map(|(candidate, candidate_zxid, round)| Vote { candidate, candidate_zxid, round })
        .boxed()
}

fn arb_zab_msg() -> BoxedStrategy<ZabMsg<Txn>> {
    prop_oneof![
        (arb_vote(), option::of(arb_peer()))
            .prop_map(|(vote, established)| ZabMsg::Notification { vote, established }),
        (arb_zxid(), any::<u32>()).prop_map(|(last_zxid, accepted_epoch)| ZabMsg::FollowerInfo {
            last_zxid,
            accepted_epoch
        }),
        (
            any::<u32>(),
            option::of((arb_zxid(), arb_bytes())),
            arb_entries(),
            arb_zxid(),
            any::<bool>(),
            any::<u32>(),
        )
            .prop_map(|(epoch, snapshot, entries, commit_to, reset, snap_chunks)| {
                ZabMsg::SyncLog { epoch, snapshot, entries, commit_to, reset, snap_chunks }
            }),
        (any::<u32>(), arb_zxid(), (any::<u32>(), any::<u32>(), any::<u32>()), arb_bytes())
            .prop_map(|(epoch, zxid, (seq, total, crc), data)| ZabMsg::SnapChunk {
                epoch,
                zxid,
                seq,
                total,
                crc,
                data
            }),
        any::<u32>().prop_map(|epoch| ZabMsg::AckSync { epoch }),
        (arb_zxid(), collection::vec(arb_txn(), 0..4))
            .prop_map(|(zxid, txns)| ZabMsg::Propose { zxid, txns }),
        arb_zxid().prop_map(|zxid| ZabMsg::Ack { zxid }),
        arb_zxid().prop_map(|zxid| ZabMsg::Commit { zxid }),
        (arb_zxid(), collection::vec(arb_txn(), 0..4))
            .prop_map(|(zxid, txns)| ZabMsg::Inform { zxid, txns }),
        (any::<u32>(), arb_zxid()).prop_map(|(epoch, commit_to)| ZabMsg::Ping { epoch, commit_to }),
        Just(ZabMsg::Pong),
    ]
    .boxed()
}

fn arb_coord_msg() -> BoxedStrategy<CoordMsg> {
    prop_oneof![
        arb_zab_msg().prop_map(CoordMsg::Zab),
        (any::<u64>(), arb_txn_op(), arb_peer(), any::<u64>())
            .prop_map(|(session, op, origin, tag)| CoordMsg::Forward { session, op, origin, tag }),
        any::<u64>().prop_map(|tag| CoordMsg::ForwardReject { tag }),
        (any::<u64>(), any::<u32>())
            .prop_map(|(commit_to, age_ms)| CoordMsg::LeaseAuth { commit_to, age_ms }),
    ]
    .boxed()
}

fn arb_lease_grant() -> BoxedStrategy<LeaseGrant> {
    (any::<u32>(), any::<u32>()).prop_map(|(ttl_ms, epoch)| LeaseGrant { ttl_ms, epoch }).boxed()
}

fn arb_zk_request() -> BoxedStrategy<ZkRequest> {
    prop_oneof![
        Just(ZkRequest::Connect),
        Just(ZkRequest::CloseSession),
        (arb_string(), arb_bytes(), arb_mode()).prop_map(|(path, data, mode)| ZkRequest::Create {
            path,
            data,
            mode
        }),
        (arb_string(), arb_version())
            .prop_map(|(path, version)| ZkRequest::Delete { path, version }),
        (arb_string(), arb_bytes(), arb_version())
            .prop_map(|(path, data, version)| ZkRequest::SetData { path, data, version }),
        (arb_string(), any::<bool>()).prop_map(|(path, watch)| ZkRequest::GetData { path, watch }),
        (arb_string(), any::<bool>()).prop_map(|(path, watch)| ZkRequest::Exists { path, watch }),
        (arb_string(), any::<bool>())
            .prop_map(|(path, watch)| ZkRequest::GetChildren { path, watch }),
        arb_string().prop_map(|path| ZkRequest::GetChildrenData { path }),
        arb_string().prop_map(|path| ZkRequest::WarmChildren { path }),
        collection::vec(arb_multi_op(), 0..4).prop_map(|ops| ZkRequest::Multi { ops }),
        Just(ZkRequest::Sync),
        Just(ZkRequest::Ping),
        (arb_string(), arb_bytes(), arb_mode())
            .prop_map(|(path, data, mode)| ZkRequest::CreatePath { path, data, mode }),
        (any::<u64>(), collection::vec(arb_multi_op(), 0..4), collection::vec(any::<u32>(), 0..4))
            .prop_map(|(txn_id, ops, participants)| ZkRequest::TxnPrepare {
                txn_id,
                ops,
                participants
            }),
        any::<u64>().prop_map(|txn_id| ZkRequest::TxnCommit { txn_id }),
        any::<u64>().prop_map(|txn_id| ZkRequest::TxnAbort { txn_id }),
    ]
    .boxed()
}

fn arb_zk_response() -> BoxedStrategy<ZkResponse> {
    prop_oneof![
        any::<u64>().prop_map(|session| ZkResponse::Connected { session }),
        Just(ZkResponse::Closed),
        arb_string().prop_map(|path| ZkResponse::Created { path }),
        Just(ZkResponse::Deleted),
        arb_stat().prop_map(ZkResponse::Stat),
        (arb_bytes(), arb_stat()).prop_map(|(data, stat)| ZkResponse::Data { data, stat }),
        option::of(arb_stat()).prop_map(ZkResponse::ExistsResult),
        (collection::vec(arb_string(), 0..4), arb_stat())
            .prop_map(|(names, stat)| ZkResponse::Children { names, stat }),
        collection::vec((arb_string(), arb_bytes(), arb_stat()), 0..4)
            .prop_map(|entries| ZkResponse::ChildrenData { entries }),
        (collection::vec((arb_string(), arb_bytes(), arb_stat()), 0..4), arb_stat())
            .prop_map(|(entries, stat)| ZkResponse::WarmedChildren { entries, stat }),
        collection::vec(arb_multi_result(), 0..4).prop_map(ZkResponse::MultiResults),
        any::<u64>().prop_map(|zxid| ZkResponse::Synced { zxid }),
        (any::<u64>(), option::of(arb_lease_grant()))
            .prop_map(|(zxid, lease)| ZkResponse::Pong { zxid, lease }),
        arb_zk_error().prop_map(ZkResponse::Error),
        Just(ZkResponse::Prepared),
        Just(ZkResponse::Committed),
        Just(ZkResponse::Aborted),
        Just(ZkResponse::TxnUnknown),
    ]
    .boxed()
}

fn arb_watch() -> BoxedStrategy<WatchNotification> {
    (
        arb_string(),
        prop_oneof![
            Just(WatchEventKind::Created),
            Just(WatchEventKind::Deleted),
            Just(WatchEventKind::DataChanged),
            Just(WatchEventKind::ChildrenChanged),
        ],
    )
        .prop_map(|(path, event)| WatchNotification { path, event })
        .boxed()
}

fn arb_server_status() -> BoxedStrategy<ServerStatus> {
    (any::<bool>(), any::<u64>(), any::<u64>(), 0usize..100_000, any::<u64>(), any::<bool>())
        .prop_map(|(is_leader, last_applied, committed, node_count, digest, alive)| ServerStatus {
            is_leader,
            last_applied,
            committed,
            node_count,
            digest,
            alive,
        })
        .boxed()
}

fn arb_client_frame() -> BoxedStrategy<ClientFrame> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), arb_zk_request())
            .prop_map(|(req_id, session, req)| ClientFrame::Request { req_id, session, req }),
        any::<u64>().prop_map(|req_id| ClientFrame::Status { req_id }),
    ]
    .boxed()
}

fn arb_server_frame() -> BoxedStrategy<ServerFrame> {
    prop_oneof![
        (any::<u64>(), arb_zk_response())
            .prop_map(|(req_id, resp)| ServerFrame::Resp { req_id, resp }),
        arb_watch().prop_map(ServerFrame::Watch),
        (any::<u64>(), arb_server_status())
            .prop_map(|(req_id, status)| ServerFrame::Status { req_id, status }),
    ]
    .boxed()
}

/// Decode `raw` as every coordination message; whatever decodes must
/// encode back to `raw` exactly (the encodings are canonical, so anything
/// else is a value the sender never sent).
fn decode_is_exact(raw: &[u8]) {
    if let Ok(m) = CoordMsg::from_wire(raw) {
        assert_eq!(m.to_wire(), raw, "CoordMsg {m:?} does not re-encode to its input");
    }
    if let Ok(f) = ClientFrame::from_wire(raw) {
        assert_eq!(f.to_wire(), raw, "ClientFrame {f:?} does not re-encode to its input");
    }
    if let Ok(f) = ServerFrame::from_wire(raw) {
        assert_eq!(f.to_wire(), raw, "ServerFrame {f:?} does not re-encode to its input");
    }
    if let Ok(t) = Txn::decode(raw) {
        assert_eq!(&t.encode()[..], raw, "Txn {t:?} does not re-encode to its input");
    }
}

fn flip(raw: &[u8], bit: usize) -> Vec<u8> {
    let mut bad = raw.to_vec();
    let i = bit % (bad.len() * 8);
    bad[i / 8] ^= 1 << (i % 8);
    bad
}

// ---------------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn zab_messages_round_trip(msg in arb_zab_msg()) {
        prop_assert_eq!(ZabMsg::from_wire(&msg.to_wire()).expect("round trip"), msg);
    }

    #[test]
    fn coord_messages_round_trip(msg in arb_coord_msg()) {
        prop_assert_eq!(CoordMsg::from_wire(&msg.to_wire()).expect("round trip"), msg);
    }

    #[test]
    fn client_frames_round_trip(f in arb_client_frame()) {
        prop_assert_eq!(ClientFrame::from_wire(&f.to_wire()).expect("round trip"), f);
    }

    #[test]
    fn server_frames_round_trip(f in arb_server_frame()) {
        prop_assert_eq!(ServerFrame::from_wire(&f.to_wire()).expect("round trip"), f);
    }

    #[test]
    fn txns_round_trip(t in arb_txn()) {
        prop_assert_eq!(Txn::decode(&t.encode()).expect("round trip"), t);
    }

    #[test]
    fn every_strict_prefix_is_an_error(
        msg in arb_coord_msg(),
        client in arb_client_frame(),
        server in arb_server_frame(),
        txn in arb_txn(),
    ) {
        // Every encoding starts with a tag byte (a txn with its header), so
        // none is empty and the empty prefix is checked too.
        let raw = msg.to_wire();
        for n in 0..raw.len() {
            prop_assert!(CoordMsg::from_wire(&raw[..n]).is_err(), "CoordMsg prefix of {} bytes", n);
        }
        let raw = client.to_wire();
        for n in 0..raw.len() {
            prop_assert!(ClientFrame::from_wire(&raw[..n]).is_err(), "ClientFrame prefix of {} bytes", n);
        }
        let raw = server.to_wire();
        for n in 0..raw.len() {
            prop_assert!(ServerFrame::from_wire(&raw[..n]).is_err(), "ServerFrame prefix of {} bytes", n);
        }
        let raw = txn.encode();
        for n in 0..raw.len() {
            prop_assert!(Txn::decode(&raw[..n]).is_err(), "Txn prefix of {} bytes", n);
        }
    }

    #[test]
    fn arbitrary_bytes_decode_exactly_or_fail(raw in vec(any::<u8>(), 0..160)) {
        decode_is_exact(&raw);
    }

    /// The same, with valid tags in front — a message's, then the nested
    /// one's — so the field decoders see the garbage rather than the tag
    /// checks. The nested tag follows the outer one directly
    /// (`CoordMsg::Zab`), after two ids (`ClientFrame::Request`) or one
    /// (`ServerFrame::Resp`); a txn's op tag follows its 28-byte header.
    #[test]
    fn garbage_behind_valid_tags_decodes_exactly_or_fail(
        outer in 1u8..7,
        inner in 1u8..19,
        ids in vec(any::<u8>(), 28),
        rest in vec(any::<u8>(), 0..96),
    ) {
        decode_is_exact(&[&[outer, inner][..], &rest].concat());
        decode_is_exact(&[&[outer][..], &ids[..16], &[inner], &rest].concat());
        decode_is_exact(&[&[outer][..], &ids[..8], &[inner], &rest].concat());
        decode_is_exact(&[&ids[..], &[inner], &rest].concat());
    }

    #[test]
    fn single_bit_flips_decode_exactly_or_fail(
        msg in arb_coord_msg(),
        client in arb_client_frame(),
        server in arb_server_frame(),
        txn in arb_txn(),
        bit in any::<usize>(),
    ) {
        decode_is_exact(&flip(&msg.to_wire(), bit));
        decode_is_exact(&flip(&client.to_wire(), bit));
        decode_is_exact(&flip(&server.to_wire(), bit));
        decode_is_exact(&flip(&txn.encode(), bit));
    }

    #[test]
    fn bit_flipped_frames_never_panic(
        f in arb_server_frame(),
        at_ppm in 0u64..1_000_000,
        flip in 1u64..256,
    ) {
        let mut raw = f.to_wire();
        let at = ((raw.len() as u64 - 1) * at_ppm / 1_000_000) as usize;
        raw[at] ^= flip as u8;
        // Without the framing layer's CRC a flip may decode into a
        // *different valid* message — that is the frame codec's job to
        // prevent. Here the law is only: no panic, no allocation blow-up.
        let _ = ServerFrame::from_wire(&raw);
    }

    #[test]
    fn garbage_never_panics_any_codec(
        data in collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = CoordMsg::from_wire(&data);
        let _ = ClientFrame::from_wire(&data);
        let _ = ServerFrame::from_wire(&data);
        let _ = ZkRequest::from_wire(&data);
        let _ = ZkResponse::from_wire(&data);
        let _ = ZabMsg::<Txn>::from_wire(&data);
    }
}

/// A count prefix claiming `u32::MAX` elements is refused before anything
/// is allocated, in every counted field of the four decoders: multi ops,
/// 2PC participants, child names, listings, multi results, proposal
/// batches, sync entries.
#[test]
fn a_huge_count_prefix_is_refused() {
    let path = || "/p".to_string();
    let op = || MultiOp::Delete { path: path(), version: None };
    let stat = Stat::default();
    let txn = Txn { session: 1, op: TxnOp::Noop, origin: PeerId(0), tag: 2, time_ns: 3 };
    let request = |req| ClientFrame::Request { req_id: 1, session: 2, req }.to_wire();
    let response = |resp| ServerFrame::Resp { req_id: 1, resp }.to_wire();
    let zab = |m| CoordMsg::Zab(m).to_wire();
    let prepare = |ops, participants| ZkRequest::TxnPrepare { txn_id: 9, ops, participants };
    // (decoder, encoding, offset of a count that is 1 in it)
    type Decode = fn(&[u8]) -> bool;
    let client: Decode = |raw| ClientFrame::from_wire(raw).is_err();
    let server: Decode = |raw| ServerFrame::from_wire(raw).is_err();
    let coord: Decode = |raw| CoordMsg::from_wire(raw).is_err();
    let log: Decode = |raw| Txn::decode(raw).is_err();
    let cases: Vec<(&str, Decode, Vec<u8>, usize)> = vec![
        ("multi ops", client, request(ZkRequest::Multi { ops: vec![op()] }), 18),
        ("prepared ops", client, request(prepare(vec![op()], vec![])), 26),
        ("participants", client, request(prepare(vec![], vec![0])), 30),
        ("names", server, response(ZkResponse::Children { names: vec![path()], stat }), 10),
        (
            "listing",
            server,
            response(ZkResponse::ChildrenData { entries: vec![(path(), Bytes::new(), stat)] }),
            10,
        ),
        (
            "warm listing",
            server,
            response(ZkResponse::WarmedChildren {
                entries: vec![(path(), Bytes::new(), stat)],
                stat,
            }),
            10,
        ),
        (
            "multi results",
            server,
            response(ZkResponse::MultiResults(vec![MultiResult::Deleted])),
            10,
        ),
        (
            "proposal",
            coord,
            zab(ZabMsg::Propose { zxid: Zxid::new(1, 1), txns: vec![txn.clone()] }),
            10,
        ),
        (
            "inform",
            coord,
            zab(ZabMsg::Inform { zxid: Zxid::new(1, 1), txns: vec![txn.clone()] }),
            10,
        ),
        (
            "sync entries",
            coord,
            zab(ZabMsg::SyncLog {
                epoch: 1,
                snapshot: None,
                entries: vec![(Zxid::new(1, 1), txn.clone())],
                commit_to: Zxid::new(1, 1),
                reset: false,
                snap_chunks: 0,
            }),
            7,
        ),
        (
            "logged multi",
            log,
            Txn { op: TxnOp::Multi { ops: vec![op()] }, ..txn.clone() }.encode().to_vec(),
            29,
        ),
        (
            "logged prepare",
            log,
            Txn {
                op: TxnOp::Prepare2pc { txn_id: 9, ops: vec![], participants: vec![0] },
                ..txn.clone()
            }
            .encode()
            .to_vec(),
            41,
        ),
    ];
    for (what, refused, mut raw, at) in cases {
        assert_eq!(raw[at..at + 4], 1u32.to_le_bytes(), "{what}: no count of 1 at {at}");
        assert!(!refused(&raw), "{what}: the valid encoding does not decode");
        raw[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(refused(&raw), "{what}: a u32::MAX count decoded");
    }
}

/// Every tag `C`'s declaration lists is one `strategy` draws, as `C` writes
/// it (tag first); every drawn encoding is at least `C`'s declared minimum
/// size, which the count checks above rely on.
fn covers<V: std::fmt::Debug, C: for<'a> Codec<'a, Value = V>>(strategy: BoxedStrategy<V>) {
    let mut rng = proptest::TestRng::seed_from_u64(46);
    let mut drawn: Vec<u8> = (0..2_000)
        .map(|_| {
            let v = strategy.generate(&mut rng);
            let mut raw = Vec::new();
            C::put(&v, &mut raw);
            assert!(raw.len() >= <C as Codec<'_>>::MIN, "{v:?} is shorter than its minimum");
            raw[0]
        })
        .collect();
    drawn.sort_unstable();
    drawn.dedup();
    let mut declared = <C as Codec<'_>>::TAGS.to_vec();
    declared.sort_unstable();
    assert_eq!(
        drawn,
        declared,
        "{}: a declared tag without a strategy arm",
        std::any::type_name::<C>()
    );
}

/// A variant added to a declaration without an arm in its strategy above
/// fails here.
#[test]
fn strategies_cover_every_declared_tag() {
    covers::<_, CoordMsg>(arb_coord_msg());
    covers::<_, ZabMsg<Txn>>(arb_zab_msg());
    covers::<_, TxnOp>(arb_txn_op());
    covers::<_, ZkRequest>(arb_zk_request());
    covers::<_, ZkResponse>(arb_zk_response());
    covers::<_, ClientFrame>(arb_client_frame());
    covers::<_, ServerFrame>(arb_server_frame());
    covers::<_, WatchEventKind>(arb_watch().prop_map(|w| w.event).boxed());
    covers::<_, MultiOpCodec<WireMode>>(arb_multi_op());
    covers::<_, MultiOpCodec<LogMode>>(arb_multi_op());
    covers::<_, MultiResultCodec>(arb_multi_result());
    covers::<_, ZkErrorCodec>(arb_zk_error());
    covers::<_, WireMode>(arb_mode());
    covers::<_, LogMode>(arb_mode());
}
