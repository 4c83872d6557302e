//! Codec-robustness property tests for the store's wire messages, the
//! companion of `crates/coord/tests/prop_wire.rs` on the data path: every
//! [`StoreReq`] and [`StoreRep`] round-trips through its codec, and corrupt
//! input — arbitrary bytes, every strict prefix of a valid encoding, single
//! bit flips — decodes to a `WireError` or to the one message that encodes
//! to exactly those bytes, never a panic and never a silently different
//! value. Both decoders lend from their input, and every length prefix is
//! checked against the bytes left before it is used, so a corrupt length
//! cannot make them allocate or read past the frame. The extent log's
//! records ([`Extent`]) round-trip too.

use proptest::collection::vec;
use proptest::prelude::*;

use dufs_net::Wire;
use dufs_store::file::Extent;
use dufs_store::{RepBody, ReqOp, StoreRep, StoreReq};

/// The fields a [`ReqOp`] borrows from, with a variant selector.
#[derive(Debug, Clone)]
struct Req {
    seq: u64,
    kind: u8,
    obj: u128,
    stripe: u64,
    within: u32,
    len: u32,
    data: Vec<u8>,
}

impl Req {
    fn view(&self) -> StoreReq<'_> {
        let (obj, stripe, within, len) = (self.obj, self.stripe, self.within, self.len);
        let op = match self.kind {
            0 => ReqOp::Write { obj, stripe, within, data: &self.data },
            1 => ReqOp::Read { obj, stripe, within, len },
            2 => ReqOp::Stat(obj),
            3 => ReqOp::Delete(obj),
            _ => ReqOp::Sync,
        };
        StoreReq { seq: self.seq, op }
    }
}

fn arb_u128() -> impl Strategy<Value = u128> {
    (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| (hi as u128) << 64 | lo as u128)
}

fn arb_req() -> impl Strategy<Value = Req> {
    (
        (any::<u64>(), 0u8..5),
        (arb_u128(), any::<u64>(), any::<u32>(), any::<u32>()),
        vec(any::<u8>(), 0..64),
    )
        .prop_map(|((seq, kind), (obj, stripe, within, len), data)| Req {
            seq,
            kind,
            obj,
            stripe,
            within,
            len,
            data,
        })
}

/// The fields a [`RepBody`] borrows from, with a variant selector.
#[derive(Debug, Clone)]
struct Rep {
    seq: u64,
    kind: u8,
    data: Vec<u8>,
    stat: Option<(u64, u32)>,
    existed: bool,
    msg: String,
}

impl Rep {
    fn view(&self) -> StoreRep<'_> {
        let body = match self.kind {
            0 => RepBody::Written,
            1 => RepBody::Data(&self.data),
            2 => RepBody::Statted(self.stat),
            3 => RepBody::Deleted(self.existed),
            4 => RepBody::Synced,
            _ => RepBody::Err(&self.msg),
        };
        StoreRep { seq: self.seq, body }
    }
}

fn arb_rep() -> impl Strategy<Value = Rep> {
    (
        any::<u64>(),
        0u8..6,
        vec(any::<u8>(), 0..64),
        proptest::option::of((any::<u64>(), any::<u32>())),
        any::<bool>(),
        // Any UTF-8, multi-byte characters included.
        vec(any::<u8>(), 0..16).prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
    )
        .prop_map(|(seq, kind, data, stat, existed, msg)| Rep {
            seq,
            kind,
            data,
            stat,
            existed,
            msg,
        })
}

fn arb_extent() -> impl Strategy<Value = Extent> {
    let trim = proptest::option::of((any::<u64>(), any::<u32>()));
    (0u8..3, arb_u128(), any::<u64>(), any::<u32>(), trim).prop_map(
        |(kind, obj, stripe, within, trim)| match kind {
            0 => Extent::Put { obj, stripe, within },
            1 => Extent::Delete(obj),
            _ => Extent::Truncate { obj, keep: stripe, trim },
        },
    )
}

/// Decode `raw` both ways; whatever decodes must encode back to `raw`
/// exactly (the encodings are canonical, so anything else is a value the
/// sender never sent).
fn decode_is_exact(raw: &[u8]) {
    if let Ok(req) = StoreReq::decode(raw) {
        assert_eq!(req.encode(), raw, "request {req:?} does not re-encode to its input");
    }
    if let Ok(rep) = StoreRep::decode(raw) {
        assert_eq!(rep.encode(), raw, "reply {rep:?} does not re-encode to its input");
    }
}

fn flip(raw: &[u8], bit: usize) -> Vec<u8> {
    let mut bad = raw.to_vec();
    let i = bit % (bad.len() * 8);
    bad[i / 8] ^= 1 << (i % 8);
    bad
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn requests_round_trip(r in arb_req()) {
        let (m, raw) = (r.view(), r.view().encode());
        prop_assert_eq!(StoreReq::decode(&raw).unwrap(), m);
    }

    #[test]
    fn replies_round_trip(r in arb_rep()) {
        let (m, raw) = (r.view(), r.view().encode());
        prop_assert_eq!(StoreRep::decode(&raw).unwrap(), m);
    }

    #[test]
    fn extents_round_trip(e in arb_extent()) {
        prop_assert_eq!(Extent::from_wire(&e.to_wire()).unwrap(), e);
    }

    #[test]
    fn arbitrary_bytes_decode_exactly_or_fail(raw in vec(any::<u8>(), 0..96)) {
        decode_is_exact(&raw);
    }

    /// The same, with a valid tag in front, so the field decoders see the
    /// garbage rather than the tag check.
    #[test]
    fn garbage_behind_a_valid_tag_decodes_exactly_or_fail(
        tag in 1u8..7,
        rest in vec(any::<u8>(), 0..64),
    ) {
        let mut raw = vec![tag];
        raw.extend_from_slice(&rest);
        decode_is_exact(&raw);
    }

    #[test]
    fn every_strict_prefix_is_an_error(req in arb_req(), rep in arb_rep()) {
        let raw = req.view().encode();
        for n in 0..raw.len() {
            prop_assert!(StoreReq::decode(&raw[..n]).is_err(), "request prefix of {} bytes", n);
        }
        let raw = rep.view().encode();
        for n in 0..raw.len() {
            prop_assert!(StoreRep::decode(&raw[..n]).is_err(), "reply prefix of {} bytes", n);
        }
    }

    #[test]
    fn single_bit_flips_decode_exactly_or_fail(
        req in arb_req(),
        rep in arb_rep(),
        bit in any::<usize>(),
    ) {
        decode_is_exact(&flip(&req.view().encode(), bit));
        decode_is_exact(&flip(&rep.view().encode(), bit));
    }
}

/// A length prefix claiming more than the frame holds is refused before
/// anything is read or allocated: the largest one, on both messages that
/// carry a payload.
#[test]
fn an_oversized_length_prefix_is_refused() {
    let data = [7u8; 8];
    let mut req =
        StoreReq { seq: 1, op: ReqOp::Write { obj: 2, stripe: 3, within: 4, data: &data } }
            .encode();
    // tag, seq, obj, stripe, within: the length sits at 37..41.
    req[37..41].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(StoreReq::decode(&req).is_err());
    let mut rep = StoreRep { seq: 1, body: RepBody::Data(&data) }.encode();
    rep[9..StoreRep::DATA_AT].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(StoreRep::decode(&rep).is_err());
}

/// The tags of the values `strategy` draws, each encoded by `encode` (tag
/// first), sorted; also checks every encoding against the declared `min`.
fn drawn_tags<T: std::fmt::Debug>(
    strategy: impl Strategy<Value = T>,
    encode: impl Fn(&T) -> Vec<u8>,
    min: usize,
) -> Vec<u8> {
    let mut rng = proptest::TestRng::seed_from_u64(46);
    let mut tags: Vec<u8> = (0..500)
        .map(|_| {
            let v = strategy.generate(&mut rng);
            let raw = encode(&v);
            assert!(raw.len() >= min, "{v:?} encodes shorter than its declared minimum {min}");
            raw[0]
        })
        .collect();
    tags.sort_unstable();
    tags.dedup();
    tags
}

/// Every tag the declarations list is one the strategies above draw: a
/// variant added without an arm in `Req::view` / `Rep::view` /
/// `arb_extent` fails here.
#[test]
fn strategies_cover_every_declared_tag() {
    use dufs_net::Codec;
    let req = drawn_tags(arb_req(), |r| r.view().encode(), <StoreReq<'_> as Codec<'_>>::MIN);
    assert_eq!(req, <StoreReq<'_> as Codec<'_>>::TAGS);
    let rep = drawn_tags(arb_rep(), |r| r.view().encode(), <StoreRep<'_> as Codec<'_>>::MIN);
    assert_eq!(rep, <StoreRep<'_> as Codec<'_>>::TAGS);
    let ext = drawn_tags(arb_extent(), Extent::to_wire, <Extent as Codec<'_>>::MIN);
    assert_eq!(ext, <Extent as Codec<'_>>::TAGS);
}
