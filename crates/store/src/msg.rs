//! `StoreMsg` wire codecs — the request/reply vocabulary between
//! [`StoreClient`](crate::StoreClient) and a store server, carried as
//! `dufs-net` frame payloads.
//!
//! Every request carries a client-chosen `seq`; replies echo it. Requests
//! on one connection are answered in order (the server applies a drained
//! batch FIFO), so `seq` is a cross-check rather than a matching
//! necessity — a mismatch means a protocol bug and fails loudly.
//!
//! Both layouts are declared once with [`dufs_net::wire!`]: a tag byte, the
//! `seq`, then the variant's fields. Both messages *borrow* the bytes they
//! carry: a `Write` is encoded straight from the caller's buffer into the
//! frame the transport sends, and a received frame is decoded into a view
//! over itself (`&'a [u8]`, `&'a str` fields) — no stripe-sized copy on
//! either side.

use dufs_net::{wire, Codec, WireCursor, WireError};

/// A `u128` object id on the wire: its high `u64`, then its low one.
pub(crate) struct HiLo;

impl<'a> Codec<'a> for HiLo {
    type Value = u128;
    const MIN: usize = 16;
    fn put(v: &u128, buf: &mut Vec<u8>) {
        <(u64, u64)>::put(&((*v >> 64) as u64, *v as u64), buf);
    }
    fn get(c: &mut WireCursor<'a>) -> Result<u128, WireError> {
        let (hi, lo) = <(u64, u64)>::get(c)?;
        Ok((hi as u128) << 64 | lo as u128)
    }
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
        Self::put(self, &mut buf);
        buf
    }

    /// Decode a complete frame into a view over it, rejecting trailing
    /// bytes.
    pub fn decode(raw: &'a [u8]) -> Result<Self, WireError> {
        decode_all::<Self>(raw)
    }
}

wire! {
    StoreReq<'a> { seq: u64 } op: ReqOp {
        1 => Write { obj: HiLo, stripe: u64, within: u32, data: &'a [u8] },
        2 => Read { obj: HiLo, stripe: u64, within: u32, len: u32 },
        3 => Stat { 0: HiLo },
        4 => Delete { 0: HiLo },
        5 => Sync,
    }
}

/// Decode a complete frame as `C`, rejecting trailing bytes.
fn decode_all<'a, C: Codec<'a>>(raw: &'a [u8]) -> Result<C::Value, WireError> {
    let mut c = WireCursor::new(raw);
    let v = C::get(&mut c)?;
    c.expect_end()?;
    Ok(v)
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
        Self::put(self, &mut buf);
        buf
    }

    /// Decode a complete frame into a view over it, rejecting trailing
    /// bytes.
    pub fn decode(raw: &'a [u8]) -> Result<Self, WireError> {
        decode_all::<Self>(raw)
    }
}

wire! {
    StoreRep<'a> { seq: u64 } body: RepBody {
        1 => Written,
        2 => Data { 0: &'a [u8] },
        3 => Statted { 0: Option<(u64, u32)> },
        4 => Deleted { 0: bool },
        5 => Synced,
        6 => Err { 0: &'a str },
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
