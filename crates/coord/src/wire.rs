//! Binary codecs ([`dufs_net::Wire`]) for every message that crosses a
//! socket between coordination processes: the replication traffic
//! ([`CoordMsg`], including the full [`ZabMsg`] family) and the client
//! session protocol ([`ClientFrame`] / [`ServerFrame`]).
//!
//! Same discipline as the WAL record codec: little-endian, length-prefixed,
//! every length validated against the remaining input before allocation,
//! unknown tag bytes are a [`WireError`] — malformed bytes never panic and
//! never produce a silently wrong value (enforced by the round-trip and
//! corruption property tests in `tests/prop_wire.rs`).
//!
//! Enum discriminants start at 1 so an accidentally zeroed buffer cannot
//! alias a real message.

use bytes::Bytes;

use dufs_net::{put_blob, put_str, Wire, WireCursor, WireError};
use dufs_zab::{PeerId, Vote, ZabMsg, Zxid};
use dufs_zkstore::{CreateMode, MultiOp, MultiResult, Stat, ZkError};

use crate::api::{LeaseGrant, ZkRequest, ZkResponse};
use crate::runtime::ServerStatus;
use crate::server::CoordMsg;
use crate::txn::Txn;
use crate::watch::{WatchEventKind, WatchNotification};

// ---------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------

fn put_zxid(buf: &mut Vec<u8>, z: Zxid) {
    buf.extend_from_slice(&z.epoch().to_le_bytes());
    buf.extend_from_slice(&z.counter().to_le_bytes());
}

fn get_zxid(c: &mut WireCursor<'_>) -> Result<Zxid, WireError> {
    let epoch = c.u32()?;
    let counter = c.u32()?;
    Ok(Zxid::new(epoch, counter))
}

pub(crate) fn put_opt_u32(buf: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
}

pub(crate) fn get_opt_u32(c: &mut WireCursor<'_>) -> Result<Option<u32>, WireError> {
    Ok(if c.bool()? { Some(c.u32()?) } else { None })
}

fn put_stat(buf: &mut Vec<u8>, s: &Stat) {
    buf.extend_from_slice(&s.czxid.to_le_bytes());
    buf.extend_from_slice(&s.mzxid.to_le_bytes());
    buf.extend_from_slice(&s.pzxid.to_le_bytes());
    buf.extend_from_slice(&s.ctime_ns.to_le_bytes());
    buf.extend_from_slice(&s.mtime_ns.to_le_bytes());
    buf.extend_from_slice(&s.version.to_le_bytes());
    buf.extend_from_slice(&s.cversion.to_le_bytes());
    buf.extend_from_slice(&s.ephemeral_owner.to_le_bytes());
    buf.extend_from_slice(&s.data_length.to_le_bytes());
    buf.extend_from_slice(&s.num_children.to_le_bytes());
}

fn get_stat(c: &mut WireCursor<'_>) -> Result<Stat, WireError> {
    Ok(Stat {
        czxid: c.u64()?,
        mzxid: c.u64()?,
        pzxid: c.u64()?,
        ctime_ns: c.u64()?,
        mtime_ns: c.u64()?,
        version: c.u32()?,
        cversion: c.u32()?,
        ephemeral_owner: c.u64()?,
        data_length: c.u32()?,
        num_children: c.u32()?,
    })
}

fn put_lease_grant(buf: &mut Vec<u8>, g: &LeaseGrant) {
    buf.extend_from_slice(&g.ttl_ms.to_le_bytes());
    buf.extend_from_slice(&g.epoch.to_le_bytes());
}

fn get_lease_grant(c: &mut WireCursor<'_>) -> Result<LeaseGrant, WireError> {
    Ok(LeaseGrant { ttl_ms: c.u32()?, epoch: c.u32()? })
}

pub(crate) fn mode_byte(m: CreateMode) -> u8 {
    match m {
        CreateMode::Persistent => 1,
        CreateMode::Ephemeral => 2,
        CreateMode::PersistentSequential => 3,
        CreateMode::EphemeralSequential => 4,
    }
}

pub(crate) fn mode_from(b: u8) -> Result<CreateMode, WireError> {
    Ok(match b {
        1 => CreateMode::Persistent,
        2 => CreateMode::Ephemeral,
        3 => CreateMode::PersistentSequential,
        4 => CreateMode::EphemeralSequential,
        t => return Err(WireError::BadTag(t)),
    })
}

fn err_byte(e: ZkError) -> u8 {
    match e {
        ZkError::NoNode => 1,
        ZkError::NodeExists => 2,
        ZkError::NotEmpty => 3,
        ZkError::BadVersion => 4,
        ZkError::NoChildrenForEphemerals => 5,
        ZkError::InvalidPath => 6,
        ZkError::SessionExpired => 7,
        ZkError::ConnectionLoss => 8,
        ZkError::RootReadOnly => 9,
        ZkError::CorruptSnapshot => 10,
        ZkError::Net => 11,
        ZkError::TxnBusy => 12,
    }
}

fn err_from(b: u8) -> Result<ZkError, WireError> {
    Ok(match b {
        1 => ZkError::NoNode,
        2 => ZkError::NodeExists,
        3 => ZkError::NotEmpty,
        4 => ZkError::BadVersion,
        5 => ZkError::NoChildrenForEphemerals,
        6 => ZkError::InvalidPath,
        7 => ZkError::SessionExpired,
        8 => ZkError::ConnectionLoss,
        9 => ZkError::RootReadOnly,
        10 => ZkError::CorruptSnapshot,
        11 => ZkError::Net,
        12 => ZkError::TxnBusy,
        t => return Err(WireError::BadTag(t)),
    })
}

/// How a codec stores a create mode, and reads it back: the wire's byte
/// ([`mode_byte`]/[`mode_from`]) or the log's (`crate::txn`).
pub(crate) type ModeCodec = (fn(CreateMode) -> u8, fn(u8) -> Result<CreateMode, WireError>);

/// The wire's [`ModeCodec`].
const WIRE_MODE: ModeCodec = (mode_byte, mode_from);

/// The ops of a multi or of a 2PC slice, length-prefixed.
pub(crate) fn put_multi_ops(buf: &mut Vec<u8>, ops: &[MultiOp], mode: ModeCodec) {
    buf.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        match op {
            MultiOp::Create { path, data, mode: m } => {
                buf.push(1);
                put_str(buf, path);
                put_blob(buf, data);
                buf.push(mode.0(*m));
            }
            MultiOp::Delete { path, version } => {
                buf.push(2);
                put_str(buf, path);
                put_opt_u32(buf, *version);
            }
            MultiOp::SetData { path, data, version } => {
                buf.push(3);
                put_str(buf, path);
                put_blob(buf, data);
                put_opt_u32(buf, *version);
            }
            MultiOp::Check { path, version } => {
                buf.push(4);
                put_str(buf, path);
                put_opt_u32(buf, *version);
            }
        }
    }
}

pub(crate) fn get_multi_ops(
    c: &mut WireCursor<'_>,
    mode: ModeCodec,
) -> Result<Vec<MultiOp>, WireError> {
    // Bound before allocating: an op is at least a tag and a path length.
    let n = c.count(5)?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(match c.u8()? {
            1 => MultiOp::Create { path: c.str()?, data: get_bytes(c)?, mode: mode.1(c.u8()?)? },
            2 => MultiOp::Delete { path: c.str()?, version: get_opt_u32(c)? },
            3 => MultiOp::SetData { path: c.str()?, data: get_bytes(c)?, version: get_opt_u32(c)? },
            4 => MultiOp::Check { path: c.str()?, version: get_opt_u32(c)? },
            t => return Err(WireError::BadTag(t)),
        });
    }
    Ok(ops)
}

/// The participant shards of a 2PC slice, length-prefixed.
pub(crate) fn put_u32s(buf: &mut Vec<u8>, v: &[u32]) {
    buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
    for x in v {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

pub(crate) fn get_u32s(c: &mut WireCursor<'_>) -> Result<Vec<u32>, WireError> {
    (0..c.count(4)?).map(|_| c.u32()).collect()
}

pub(crate) fn get_bytes(c: &mut WireCursor<'_>) -> Result<Bytes, WireError> {
    Ok(Bytes::copy_from_slice(c.blob()?))
}

/// The `(name, data, stat)` entries of a batched directory listing.
fn put_listing(buf: &mut Vec<u8>, entries: &[(String, Bytes, Stat)]) {
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, data, stat) in entries {
        put_str(buf, name);
        put_blob(buf, data);
        put_stat(buf, stat);
    }
}

fn get_listing(c: &mut WireCursor<'_>) -> Result<Vec<(String, Bytes, Stat)>, WireError> {
    (0..c.count(8)?).map(|_| Ok((c.str()?, get_bytes(c)?, get_stat(c)?))).collect()
}

fn put_multi_result(buf: &mut Vec<u8>, r: &MultiResult) {
    match r {
        MultiResult::Created(path) => {
            buf.push(1);
            put_str(buf, path);
        }
        MultiResult::Deleted => buf.push(2),
        MultiResult::Set(stat) => {
            buf.push(3);
            put_stat(buf, stat);
        }
        MultiResult::Checked => buf.push(4),
    }
}

fn get_multi_result(c: &mut WireCursor<'_>) -> Result<MultiResult, WireError> {
    Ok(match c.u8()? {
        1 => MultiResult::Created(c.str()?),
        2 => MultiResult::Deleted,
        3 => MultiResult::Set(get_stat(c)?),
        4 => MultiResult::Checked,
        t => return Err(WireError::BadTag(t)),
    })
}

/// A replicated transaction travels as a blob in its own (WAL) codec —
/// one canonical byte form on disk and on the wire.
fn put_txn(buf: &mut Vec<u8>, t: &Txn) {
    put_blob(buf, &t.encode());
}

fn get_txn(c: &mut WireCursor<'_>) -> Result<Txn, WireError> {
    Txn::decode(c.blob()?).map_err(|_| WireError::Invalid("malformed txn record"))
}

/// The transactions of one proposal batch.
fn put_txns(buf: &mut Vec<u8>, txns: &[Txn]) {
    buf.extend_from_slice(&(txns.len() as u32).to_le_bytes());
    for t in txns {
        put_txn(buf, t);
    }
}

fn get_txns(c: &mut WireCursor<'_>) -> Result<Vec<Txn>, WireError> {
    (0..c.count(4)?).map(|_| get_txn(c)).collect()
}

fn put_vote(buf: &mut Vec<u8>, v: &Vote) {
    buf.extend_from_slice(&v.candidate.0.to_le_bytes());
    put_zxid(buf, v.candidate_zxid);
    buf.extend_from_slice(&v.round.to_le_bytes());
}

fn get_vote(c: &mut WireCursor<'_>) -> Result<Vote, WireError> {
    Ok(Vote { candidate: PeerId(c.u32()?), candidate_zxid: get_zxid(c)?, round: c.u64()? })
}

fn put_entries(buf: &mut Vec<u8>, entries: &[(Zxid, Txn)]) {
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (z, t) in entries {
        put_zxid(buf, *z);
        put_txn(buf, t);
    }
}

fn get_entries(c: &mut WireCursor<'_>) -> Result<Vec<(Zxid, Txn)>, WireError> {
    // Each entry is at least a zxid (8) plus a txn blob length (4).
    let n = c.count(12)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let z = get_zxid(c)?;
        out.push((z, get_txn(c)?));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Replication traffic
// ---------------------------------------------------------------------

/// Encode a replication message (free functions rather than a `Wire` impl:
/// the orphan rule forbids implementing the foreign `Wire` trait for the
/// foreign `ZabMsg` type, local `Txn` parameter notwithstanding).
pub fn put_zab_msg(msg: &ZabMsg<Txn>, buf: &mut Vec<u8>) {
    {
        match msg {
            ZabMsg::Notification { vote, established } => {
                buf.push(1);
                put_vote(buf, vote);
                match established {
                    None => buf.push(0),
                    Some(p) => {
                        buf.push(1);
                        buf.extend_from_slice(&p.0.to_le_bytes());
                    }
                }
            }
            ZabMsg::FollowerInfo { last_zxid, accepted_epoch } => {
                buf.push(2);
                put_zxid(buf, *last_zxid);
                buf.extend_from_slice(&accepted_epoch.to_le_bytes());
            }
            ZabMsg::SyncLog { epoch, snapshot, entries, commit_to, reset, snap_chunks } => {
                buf.push(3);
                buf.extend_from_slice(&epoch.to_le_bytes());
                match snapshot {
                    None => buf.push(0),
                    Some((z, blob)) => {
                        buf.push(1);
                        put_zxid(buf, *z);
                        put_blob(buf, blob);
                    }
                }
                put_entries(buf, entries);
                put_zxid(buf, *commit_to);
                buf.push(*reset as u8);
                buf.extend_from_slice(&snap_chunks.to_le_bytes());
            }
            ZabMsg::SnapChunk { epoch, zxid, seq, total, crc, data } => {
                buf.push(4);
                buf.extend_from_slice(&epoch.to_le_bytes());
                put_zxid(buf, *zxid);
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.extend_from_slice(&total.to_le_bytes());
                buf.extend_from_slice(&crc.to_le_bytes());
                put_blob(buf, data);
            }
            ZabMsg::AckSync { epoch } => {
                buf.push(5);
                buf.extend_from_slice(&epoch.to_le_bytes());
            }
            ZabMsg::Propose { zxid, txns } => {
                buf.push(6);
                put_zxid(buf, *zxid);
                put_txns(buf, txns);
            }
            ZabMsg::Ack { zxid } => {
                buf.push(7);
                put_zxid(buf, *zxid);
            }
            ZabMsg::Commit { zxid } => {
                buf.push(8);
                put_zxid(buf, *zxid);
            }
            ZabMsg::Inform { zxid, txns } => {
                buf.push(9);
                put_zxid(buf, *zxid);
                put_txns(buf, txns);
            }
            ZabMsg::Ping { epoch, commit_to } => {
                buf.push(10);
                buf.extend_from_slice(&epoch.to_le_bytes());
                put_zxid(buf, *commit_to);
            }
            ZabMsg::Pong => buf.push(11),
        }
    }
}

/// Decode a replication message (counterpart of [`put_zab_msg`]).
pub fn get_zab_msg(c: &mut WireCursor<'_>) -> Result<ZabMsg<Txn>, WireError> {
    {
        Ok(match c.u8()? {
            1 => ZabMsg::Notification {
                vote: get_vote(c)?,
                established: if c.bool()? { Some(PeerId(c.u32()?)) } else { None },
            },
            2 => ZabMsg::FollowerInfo { last_zxid: get_zxid(c)?, accepted_epoch: c.u32()? },
            3 => ZabMsg::SyncLog {
                epoch: c.u32()?,
                snapshot: if c.bool()? {
                    let z = get_zxid(c)?;
                    Some((z, get_bytes(c)?))
                } else {
                    None
                },
                entries: get_entries(c)?,
                commit_to: get_zxid(c)?,
                reset: c.bool()?,
                snap_chunks: c.u32()?,
            },
            4 => ZabMsg::SnapChunk {
                epoch: c.u32()?,
                zxid: get_zxid(c)?,
                seq: c.u32()?,
                total: c.u32()?,
                crc: c.u32()?,
                data: get_bytes(c)?,
            },
            5 => ZabMsg::AckSync { epoch: c.u32()? },
            6 => ZabMsg::Propose { zxid: get_zxid(c)?, txns: get_txns(c)? },
            7 => ZabMsg::Ack { zxid: get_zxid(c)? },
            8 => ZabMsg::Commit { zxid: get_zxid(c)? },
            9 => ZabMsg::Inform { zxid: get_zxid(c)?, txns: get_txns(c)? },
            10 => ZabMsg::Ping { epoch: c.u32()?, commit_to: get_zxid(c)? },
            11 => ZabMsg::Pong,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl Wire for CoordMsg {
    fn wire_encode(&self, buf: &mut Vec<u8>) {
        match self {
            CoordMsg::Zab(m) => {
                buf.push(1);
                put_zab_msg(m, buf);
            }
            // A Forward is a Txn minus its commit timestamp: reuse the txn
            // codec with `time_ns: 0` (the leader stamps the real time).
            CoordMsg::Forward { session, op, origin, tag } => {
                buf.push(2);
                put_txn(
                    buf,
                    &Txn {
                        session: *session,
                        op: op.clone(),
                        origin: *origin,
                        tag: *tag,
                        time_ns: 0,
                    },
                );
            }
            // Tags 3/4 were SyncRequest/SyncReply, retired when `sync`
            // became a no-op proposal riding the Forward path; kept
            // unassigned so old frames fail loudly as BadTag.
            CoordMsg::ForwardReject { tag } => {
                buf.push(5);
                buf.extend_from_slice(&tag.to_le_bytes());
            }
            CoordMsg::LeaseAuth { commit_to, age_ms } => {
                buf.push(6);
                buf.extend_from_slice(&commit_to.to_le_bytes());
                buf.extend_from_slice(&age_ms.to_le_bytes());
            }
        }
    }

    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, WireError> {
        Ok(match c.u8()? {
            1 => CoordMsg::Zab(get_zab_msg(c)?),
            2 => {
                let t = get_txn(c)?;
                // Encoded with `time_ns: 0`: a stamped txn is not a Forward.
                if t.time_ns != 0 {
                    return Err(WireError::Invalid("forwarded txn carries a commit time"));
                }
                CoordMsg::Forward { session: t.session, op: t.op, origin: t.origin, tag: t.tag }
            }
            5 => CoordMsg::ForwardReject { tag: c.u64()? },
            6 => CoordMsg::LeaseAuth { commit_to: c.u64()?, age_ms: c.u32()? },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

// ---------------------------------------------------------------------
// Client session traffic
// ---------------------------------------------------------------------

impl Wire for ZkRequest {
    fn wire_encode(&self, buf: &mut Vec<u8>) {
        match self {
            ZkRequest::Connect => buf.push(1),
            ZkRequest::CloseSession => buf.push(2),
            ZkRequest::Create { path, data, mode } => {
                buf.push(3);
                put_str(buf, path);
                put_blob(buf, data);
                buf.push(mode_byte(*mode));
            }
            ZkRequest::Delete { path, version } => {
                buf.push(4);
                put_str(buf, path);
                put_opt_u32(buf, *version);
            }
            ZkRequest::SetData { path, data, version } => {
                buf.push(5);
                put_str(buf, path);
                put_blob(buf, data);
                put_opt_u32(buf, *version);
            }
            ZkRequest::GetData { path, watch } => {
                buf.push(6);
                put_str(buf, path);
                buf.push(*watch as u8);
            }
            ZkRequest::Exists { path, watch } => {
                buf.push(7);
                put_str(buf, path);
                buf.push(*watch as u8);
            }
            ZkRequest::GetChildren { path, watch } => {
                buf.push(8);
                put_str(buf, path);
                buf.push(*watch as u8);
            }
            ZkRequest::GetChildrenData { path } => {
                buf.push(9);
                put_str(buf, path);
            }
            ZkRequest::Multi { ops } => {
                buf.push(10);
                put_multi_ops(buf, ops, WIRE_MODE);
            }
            ZkRequest::Sync => buf.push(11),
            ZkRequest::Ping => buf.push(12),
            ZkRequest::CreatePath { path, data, mode } => {
                buf.push(13);
                put_str(buf, path);
                put_blob(buf, data);
                buf.push(mode_byte(*mode));
            }
            ZkRequest::TxnPrepare { txn_id, ops, participants } => {
                buf.push(14);
                buf.extend_from_slice(&txn_id.to_le_bytes());
                put_multi_ops(buf, ops, WIRE_MODE);
                put_u32s(buf, participants);
            }
            ZkRequest::TxnCommit { txn_id } => {
                buf.push(15);
                buf.extend_from_slice(&txn_id.to_le_bytes());
            }
            ZkRequest::TxnAbort { txn_id } => {
                buf.push(16);
                buf.extend_from_slice(&txn_id.to_le_bytes());
            }
            ZkRequest::WarmChildren { path } => {
                buf.push(17);
                put_str(buf, path);
            }
        }
    }

    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, WireError> {
        Ok(match c.u8()? {
            1 => ZkRequest::Connect,
            2 => ZkRequest::CloseSession,
            3 => {
                ZkRequest::Create { path: c.str()?, data: get_bytes(c)?, mode: mode_from(c.u8()?)? }
            }
            4 => ZkRequest::Delete { path: c.str()?, version: get_opt_u32(c)? },
            5 => {
                ZkRequest::SetData { path: c.str()?, data: get_bytes(c)?, version: get_opt_u32(c)? }
            }
            6 => ZkRequest::GetData { path: c.str()?, watch: c.bool()? },
            7 => ZkRequest::Exists { path: c.str()?, watch: c.bool()? },
            8 => ZkRequest::GetChildren { path: c.str()?, watch: c.bool()? },
            9 => ZkRequest::GetChildrenData { path: c.str()? },
            10 => ZkRequest::Multi { ops: get_multi_ops(c, WIRE_MODE)? },
            11 => ZkRequest::Sync,
            12 => ZkRequest::Ping,
            13 => ZkRequest::CreatePath {
                path: c.str()?,
                data: get_bytes(c)?,
                mode: mode_from(c.u8()?)?,
            },
            14 => ZkRequest::TxnPrepare {
                txn_id: c.u64()?,
                ops: get_multi_ops(c, WIRE_MODE)?,
                participants: get_u32s(c)?,
            },
            15 => ZkRequest::TxnCommit { txn_id: c.u64()? },
            16 => ZkRequest::TxnAbort { txn_id: c.u64()? },
            17 => ZkRequest::WarmChildren { path: c.str()? },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl Wire for ZkResponse {
    fn wire_encode(&self, buf: &mut Vec<u8>) {
        match self {
            ZkResponse::Connected { session } => {
                buf.push(1);
                buf.extend_from_slice(&session.to_le_bytes());
            }
            ZkResponse::Closed => buf.push(2),
            ZkResponse::Created { path } => {
                buf.push(3);
                put_str(buf, path);
            }
            ZkResponse::Deleted => buf.push(4),
            ZkResponse::Stat(s) => {
                buf.push(5);
                put_stat(buf, s);
            }
            ZkResponse::Data { data, stat } => {
                buf.push(6);
                put_blob(buf, data);
                put_stat(buf, stat);
            }
            ZkResponse::ExistsResult(s) => {
                buf.push(7);
                match s {
                    None => buf.push(0),
                    Some(s) => {
                        buf.push(1);
                        put_stat(buf, s);
                    }
                }
            }
            ZkResponse::Children { names, stat } => {
                buf.push(8);
                buf.extend_from_slice(&(names.len() as u32).to_le_bytes());
                for n in names {
                    put_str(buf, n);
                }
                put_stat(buf, stat);
            }
            ZkResponse::ChildrenData { entries } => {
                buf.push(9);
                put_listing(buf, entries);
            }
            ZkResponse::MultiResults(rs) => {
                buf.push(10);
                buf.extend_from_slice(&(rs.len() as u32).to_le_bytes());
                for r in rs {
                    put_multi_result(buf, r);
                }
            }
            ZkResponse::Synced { zxid } => {
                buf.push(11);
                buf.extend_from_slice(&zxid.to_le_bytes());
            }
            ZkResponse::Pong { zxid, lease } => {
                buf.push(12);
                buf.extend_from_slice(&zxid.to_le_bytes());
                match lease {
                    Some(g) => {
                        buf.push(1);
                        put_lease_grant(buf, g);
                    }
                    None => buf.push(0),
                }
            }
            ZkResponse::Error(e) => {
                buf.push(13);
                buf.push(err_byte(*e));
            }
            ZkResponse::Prepared => buf.push(14),
            ZkResponse::Committed => buf.push(15),
            ZkResponse::Aborted => buf.push(16),
            ZkResponse::TxnUnknown => buf.push(17),
            ZkResponse::WarmedChildren { entries, stat } => {
                buf.push(18);
                put_listing(buf, entries);
                put_stat(buf, stat);
            }
        }
    }

    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, WireError> {
        Ok(match c.u8()? {
            1 => ZkResponse::Connected { session: c.u64()? },
            2 => ZkResponse::Closed,
            3 => ZkResponse::Created { path: c.str()? },
            4 => ZkResponse::Deleted,
            5 => ZkResponse::Stat(get_stat(c)?),
            6 => ZkResponse::Data { data: get_bytes(c)?, stat: get_stat(c)? },
            7 => ZkResponse::ExistsResult(if c.bool()? { Some(get_stat(c)?) } else { None }),
            8 => {
                let n = c.count(4)?;
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(c.str()?);
                }
                ZkResponse::Children { names, stat: get_stat(c)? }
            }
            9 => ZkResponse::ChildrenData { entries: get_listing(c)? },
            10 => {
                let n = c.count(1)?;
                let mut rs = Vec::with_capacity(n);
                for _ in 0..n {
                    rs.push(get_multi_result(c)?);
                }
                ZkResponse::MultiResults(rs)
            }
            11 => ZkResponse::Synced { zxid: c.u64()? },
            12 => ZkResponse::Pong {
                zxid: c.u64()?,
                lease: if c.bool()? { Some(get_lease_grant(c)?) } else { None },
            },
            13 => ZkResponse::Error(err_from(c.u8()?)?),
            14 => ZkResponse::Prepared,
            15 => ZkResponse::Committed,
            16 => ZkResponse::Aborted,
            17 => ZkResponse::TxnUnknown,
            18 => ZkResponse::WarmedChildren { entries: get_listing(c)?, stat: get_stat(c)? },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl Wire for WatchNotification {
    fn wire_encode(&self, buf: &mut Vec<u8>) {
        put_str(buf, &self.path);
        buf.push(match self.event {
            WatchEventKind::Created => 1,
            WatchEventKind::Deleted => 2,
            WatchEventKind::DataChanged => 3,
            WatchEventKind::ChildrenChanged => 4,
        });
    }

    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, WireError> {
        let path = c.str()?;
        let event = match c.u8()? {
            1 => WatchEventKind::Created,
            2 => WatchEventKind::Deleted,
            3 => WatchEventKind::DataChanged,
            4 => WatchEventKind::ChildrenChanged,
            t => return Err(WireError::BadTag(t)),
        };
        Ok(WatchNotification { path, event })
    }
}

impl Wire for ServerStatus {
    fn wire_encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.is_leader as u8);
        buf.extend_from_slice(&self.last_applied.to_le_bytes());
        buf.extend_from_slice(&self.committed.to_le_bytes());
        buf.extend_from_slice(&(self.node_count as u64).to_le_bytes());
        buf.extend_from_slice(&self.digest.to_le_bytes());
        buf.push(self.alive as u8);
    }

    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, WireError> {
        Ok(ServerStatus {
            is_leader: c.bool()?,
            last_applied: c.u64()?,
            committed: c.u64()?,
            node_count: c.u64()? as usize,
            digest: c.u64()?,
            alive: c.bool()?,
        })
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

impl Wire for ClientFrame {
    fn wire_encode(&self, buf: &mut Vec<u8>) {
        match self {
            ClientFrame::Request { req_id, session, req } => {
                buf.push(1);
                buf.extend_from_slice(&req_id.to_le_bytes());
                buf.extend_from_slice(&session.to_le_bytes());
                req.wire_encode(buf);
            }
            ClientFrame::Status { req_id } => {
                buf.push(2);
                buf.extend_from_slice(&req_id.to_le_bytes());
            }
        }
    }

    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, WireError> {
        Ok(match c.u8()? {
            1 => ClientFrame::Request {
                req_id: c.u64()?,
                session: c.u64()?,
                req: ZkRequest::wire_decode(c)?,
            },
            2 => ClientFrame::Status { req_id: c.u64()? },
            t => return Err(WireError::BadTag(t)),
        })
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

impl Wire for ServerFrame {
    fn wire_encode(&self, buf: &mut Vec<u8>) {
        match self {
            ServerFrame::Resp { req_id, resp } => {
                buf.push(1);
                buf.extend_from_slice(&req_id.to_le_bytes());
                resp.wire_encode(buf);
            }
            ServerFrame::Watch(n) => {
                buf.push(2);
                n.wire_encode(buf);
            }
            ServerFrame::Status { req_id, status } => {
                buf.push(3);
                buf.extend_from_slice(&req_id.to_le_bytes());
                status.wire_encode(buf);
            }
        }
    }

    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, WireError> {
        Ok(match c.u8()? {
            1 => ServerFrame::Resp { req_id: c.u64()?, resp: ZkResponse::wire_decode(c)? },
            2 => ServerFrame::Watch(WatchNotification::wire_decode(c)?),
            3 => ServerFrame::Status { req_id: c.u64()?, status: ServerStatus::wire_decode(c)? },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnOp;

    fn rt<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes).unwrap(), v, "round trip");
    }

    fn rt_zab(m: ZabMsg<Txn>) {
        let mut buf = Vec::new();
        put_zab_msg(&m, &mut buf);
        let mut c = WireCursor::new(&buf);
        assert_eq!(get_zab_msg(&mut c).unwrap(), m, "round trip");
        c.expect_end().unwrap();
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
        rt_zab(ZabMsg::Propose { zxid: Zxid::new(3, 4), txns: vec![txn.clone()] });
        rt_zab(ZabMsg::<Txn>::SyncLog {
            epoch: 5,
            snapshot: Some((Zxid::new(1, 2), Bytes::from_static(b"snap"))),
            entries: vec![(Zxid::new(1, 3), txn)],
            commit_to: Zxid::new(1, 3),
            reset: true,
            snap_chunks: 0,
        });
        rt_zab(ZabMsg::<Txn>::SnapChunk {
            epoch: 5,
            zxid: Zxid::new(1, 2),
            seq: 1,
            total: 3,
            crc: 0xDEAD_BEEF,
            data: Bytes::from_static(b"chunk"),
        });
        rt_zab(ZabMsg::<Txn>::Pong);
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
