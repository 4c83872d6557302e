//! `StoreMsg` wire codecs — the request/reply vocabulary between
//! [`StoreClient`](crate::StoreClient) and a store server, carried as
//! `dufs-net` frame payloads.
//!
//! Every request carries a client-chosen `seq`; replies echo it. Requests
//! on one connection are answered in order (the server applies a drained
//! batch FIFO), so `seq` is a cross-check rather than a matching
//! necessity — a mismatch means a protocol bug and fails loudly.
//!
//! Both messages *borrow* the bytes they carry: a `Write` is encoded straight
//! from the caller's buffer into the frame the transport sends, and a
//! received frame is decoded into a view over itself — no stripe-sized
//! copy on either side. (That is why they do not implement
//! [`dufs_net::Wire`], whose decoder cannot lend from its input.)

use dufs_net::{put_blob, put_str, WireCursor, WireError};

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u128(buf: &mut Vec<u8>, v: u128) {
    put_u64(buf, (v >> 64) as u64);
    put_u64(buf, v as u64);
}
pub(crate) fn get_u128(c: &mut WireCursor<'_>) -> Result<u128, WireError> {
    let hi = c.u64()? as u128;
    let lo = c.u64()? as u128;
    Ok((hi << 64) | lo)
}

/// A request to one storage target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreReq<'a> {
    /// Client-chosen sequence number, echoed in the reply.
    pub seq: u64,
    /// What the target is asked to do.
    pub op: ReqOp<'a>,
}

/// The operation a [`StoreReq`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqOp<'a> {
    /// Store `data` at byte `within` of stripe `stripe` of object `obj`.
    Write {
        /// Object (FID) the stripe belongs to.
        obj: u128,
        /// Global stripe index.
        stripe: u64,
        /// Byte offset inside the stripe chunk.
        within: u32,
        /// The bytes to store.
        data: &'a [u8],
    },
    /// Read `len` bytes at byte `within` of stripe `stripe` of `obj`.
    Read {
        /// Object (FID).
        obj: u128,
        /// Global stripe index.
        stripe: u64,
        /// Byte offset inside the stripe chunk.
        within: u32,
        /// Bytes to return (zero-filled where nothing is stored).
        len: u32,
    },
    /// Report the highest stored stripe of the object on this target.
    Stat(u128),
    /// Drop every stripe of the object on this target.
    Delete(u128),
    /// Durability barrier: force everything acked so far to stable
    /// storage (the explicit barrier under
    /// [`FsyncPolicy::None`](crate::FsyncPolicy::None)).
    Sync,
}

impl<'a> StoreReq<'a> {
    /// Whether this request mutates the target (needs the group-commit
    /// sync before its ack under
    /// [`FsyncPolicy::Group`](crate::FsyncPolicy::Group)).
    pub fn is_mutation(&self) -> bool {
        matches!(self.op, ReqOp::Write { .. } | ReqOp::Delete(_))
    }

    /// Encode into the one buffer the transport sends, sized up front: 41
    /// bytes is the longest fixed part (tag, seq, obj, stripe, within, len).
    pub fn encode(&self) -> Vec<u8> {
        let data_len = if let ReqOp::Write { data, .. } = self.op { data.len() } else { 0 };
        let mut buf = Vec::with_capacity(41 + data_len);
        buf.push(match self.op {
            ReqOp::Write { .. } => 1,
            ReqOp::Read { .. } => 2,
            ReqOp::Stat(_) => 3,
            ReqOp::Delete(_) => 4,
            ReqOp::Sync => 5,
        });
        put_u64(&mut buf, self.seq);
        match self.op {
            ReqOp::Write { obj, stripe, within, data } => {
                put_u128(&mut buf, obj);
                put_u64(&mut buf, stripe);
                put_u32(&mut buf, within);
                put_blob(&mut buf, data);
            }
            ReqOp::Read { obj, stripe, within, len } => {
                put_u128(&mut buf, obj);
                put_u64(&mut buf, stripe);
                put_u32(&mut buf, within);
                put_u32(&mut buf, len);
            }
            ReqOp::Stat(obj) | ReqOp::Delete(obj) => put_u128(&mut buf, obj),
            ReqOp::Sync => {}
        }
        buf
    }

    /// Decode a complete frame into a view over it, rejecting trailing
    /// bytes.
    pub fn decode(raw: &'a [u8]) -> Result<Self, WireError> {
        let mut c = WireCursor::new(raw);
        let (tag, seq) = (c.u8()?, c.u64()?);
        let op = match tag {
            1 => ReqOp::Write {
                obj: get_u128(&mut c)?,
                stripe: c.u64()?,
                within: c.u32()?,
                data: c.blob()?,
            },
            2 => ReqOp::Read {
                obj: get_u128(&mut c)?,
                stripe: c.u64()?,
                within: c.u32()?,
                len: c.u32()?,
            },
            3 => ReqOp::Stat(get_u128(&mut c)?),
            4 => ReqOp::Delete(get_u128(&mut c)?),
            5 => ReqOp::Sync,
            t => return Err(WireError::BadTag(t)),
        };
        c.expect_end()?;
        Ok(StoreReq { seq, op })
    }
}

/// A target's reply. Ordering matches the request order on the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRep<'a> {
    /// Echo of the request `seq`.
    pub seq: u64,
    /// The outcome.
    pub body: RepBody<'a>,
}

/// The outcome a [`StoreRep`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepBody<'a> {
    /// Write applied (and durable, under per-write/group fsync).
    Written,
    /// Read result: exactly the requested length, zero-filled where the
    /// target stores nothing.
    Data(&'a [u8]),
    /// Stat result: the highest stored stripe and that chunk's length, if
    /// any.
    Statted(Option<(u64, u32)>),
    /// Delete applied; whether the target stored anything for the object.
    Deleted(bool),
    /// Sync barrier reached: all prior acks are durable.
    Synced,
    /// The request failed server-side (I/O error); the message is
    /// diagnostic.
    Err(&'a str),
}

impl<'a> StoreRep<'a> {
    /// Offset of the data bytes in an encoded [`RepBody::Data`] reply:
    /// tag, seq, length.
    pub const DATA_AT: usize = 13;

    /// The encoding of a `Data` reply of `len` zero bytes — the frame a
    /// server reads stored bytes straight into (at [`Self::DATA_AT`]), so
    /// they are never staged in a buffer of their own.
    pub fn zeroed_data_frame(seq: u64, len: u32) -> Vec<u8> {
        let mut buf = vec![0u8; Self::DATA_AT + len as usize];
        buf[0] = 2;
        buf[1..9].copy_from_slice(&seq.to_le_bytes());
        buf[9..Self::DATA_AT].copy_from_slice(&len.to_le_bytes());
        buf
    }

    /// Encode into a fresh buffer. (A server builds its `Data` replies
    /// with [`Self::zeroed_data_frame`], not here.)
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        buf.push(match self.body {
            RepBody::Written => 1,
            RepBody::Data(_) => 2,
            RepBody::Statted(_) => 3,
            RepBody::Deleted(_) => 4,
            RepBody::Synced => 5,
            RepBody::Err(_) => 6,
        });
        put_u64(&mut buf, self.seq);
        match self.body {
            RepBody::Written | RepBody::Synced => {}
            RepBody::Data(data) => put_blob(&mut buf, data),
            RepBody::Statted(None) => buf.push(0),
            RepBody::Statted(Some((stripe, len))) => {
                buf.push(1);
                put_u64(&mut buf, stripe);
                put_u32(&mut buf, len);
            }
            RepBody::Deleted(existed) => buf.push(u8::from(existed)),
            RepBody::Err(msg) => put_str(&mut buf, msg),
        }
        buf
    }

    /// Decode a complete frame into a view over it, rejecting trailing
    /// bytes.
    pub fn decode(raw: &'a [u8]) -> Result<Self, WireError> {
        let mut c = WireCursor::new(raw);
        let (tag, seq) = (c.u8()?, c.u64()?);
        let body = match tag {
            1 => RepBody::Written,
            2 => RepBody::Data(c.blob()?),
            3 => RepBody::Statted(if c.bool()? { Some((c.u64()?, c.u32()?)) } else { None }),
            4 => RepBody::Deleted(c.bool()?),
            5 => RepBody::Synced,
            6 => RepBody::Err(
                std::str::from_utf8(c.blob()?)
                    .map_err(|_| WireError::Invalid("non-UTF-8 string"))?,
            ),
            t => return Err(WireError::BadTag(t)),
        };
        c.expect_end()?;
        Ok(StoreRep { seq, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(seq: u64, op: ReqOp<'_>) {
        let m = StoreReq { seq, op };
        assert_eq!(StoreReq::decode(&m.encode()).unwrap(), m);
    }
    fn round_trip_rep(seq: u64, body: RepBody<'_>) {
        let m = StoreRep { seq, body };
        assert_eq!(StoreRep::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(
            9,
            ReqOp::Write { obj: u128::MAX - 7, stripe: 42, within: 100, data: &[1, 2] },
        );
        round_trip_req(0, ReqOp::Read { obj: 1, stripe: 0, within: 0, len: 65536 });
        round_trip_req(3, ReqOp::Stat(0));
        round_trip_req(4, ReqOp::Delete(77));
        round_trip_req(u64::MAX, ReqOp::Sync);
    }

    #[test]
    fn replies_round_trip() {
        round_trip_rep(1, RepBody::Written);
        round_trip_rep(2, RepBody::Data(&[0; 100]));
        round_trip_rep(3, RepBody::Statted(Some((7, 1 << 20))));
        round_trip_rep(3, RepBody::Statted(None));
        round_trip_rep(4, RepBody::Deleted(true));
        round_trip_rep(5, RepBody::Synced);
        round_trip_rep(6, RepBody::Err("disk on fire"));
    }

    #[test]
    fn a_write_is_encoded_into_exactly_one_allocation() {
        let data = vec![7u8; 64 << 10];
        let op = ReqOp::Write { obj: 2, stripe: 3, within: 0, data: &data };
        let raw = StoreReq { seq: 1, op }.encode();
        assert_eq!(raw.capacity(), raw.len(), "no regrow, no slack");
    }

    #[test]
    fn zeroed_data_frame_is_the_encoding_of_zeros() {
        assert_eq!(
            StoreRep::zeroed_data_frame(77, 5),
            StoreRep { seq: 77, body: RepBody::Data(&[0; 5]) }.encode()
        );
    }

    #[test]
    fn truncated_and_trailing_fail_loudly() {
        let raw = StoreReq { seq: 3, op: ReqOp::Stat(12) }.encode();
        assert!(StoreReq::decode(&raw[..raw.len() - 1]).is_err());
        let mut long = raw.clone();
        long.push(0);
        assert!(StoreReq::decode(&long).is_err());
        assert!(StoreRep::decode(&[99]).is_err());
    }
}
