//! Bounds-checked binary codec the upper layers declare their message
//! layouts with ([`crate::wire!`]). Little-endian, length-prefixed — the
//! same discipline as the WAL's record codec, shared here so every wire
//! message decodes with identical error behaviour: malformed bytes are a
//! [`WireError`], never a panic, never a silent partial value.

/// Structural decode failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value did.
    Truncated,
    /// An enum discriminant byte has no meaning.
    BadTag(u8),
    /// A magic prefix did not match.
    BadMagic,
    /// A protocol version this build does not speak.
    BadVersion(u16),
    /// Bytes left over after a complete value.
    Trailing,
    /// A field violated an invariant (non-UTF-8 string, oversized count).
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            WireError::BadMagic => write!(f, "bad magic"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::Trailing => write!(f, "trailing bytes after value"),
            WireError::Invalid(m) => write!(f, "invalid field: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked reader over a byte slice.
#[derive(Debug)]
pub struct WireCursor<'a> {
    raw: &'a [u8],
    pos: usize,
}

impl<'a> WireCursor<'a> {
    /// Start reading `raw` from the beginning.
    pub fn new(raw: &'a [u8]) -> Self {
        WireCursor { raw, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.raw.len() - self.pos
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.raw[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `0`/`1` boolean byte.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Read a `u32`-length-prefixed byte run. The length is validated
    /// against the remaining input *before* any allocation, so a corrupt
    /// length cannot cause an oversized allocation.
    pub fn blob(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let s = self.blob()?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::Invalid("non-UTF-8 string"))
    }

    /// Read a `u32` element count for a collection whose elements occupy at
    /// least `min_elem_bytes` each, bounding the count by the remaining
    /// input so a corrupt count cannot cause an oversized allocation.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Invalid("collection count exceeds input"));
        }
        Ok(n)
    }

    /// Require that the input is fully consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Trailing);
        }
        Ok(())
    }
}

/// A message type with a self-describing binary form: every type that is
/// its own [`Codec`] (a [`crate::wire!`] declaration without `as`) and owns what it
/// decodes. `wire_decode` accepts exactly what `wire_encode` produces and
/// rejects everything else with an error — the round-trip law the
/// transport's property tests enforce for every implementor.
pub trait Wire: Sized {
    /// Append this value's encoding to `buf`.
    fn wire_encode(&self, buf: &mut Vec<u8>);

    /// Decode one value, advancing the cursor past it.
    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.wire_encode(&mut buf);
        buf
    }

    /// Decode a complete buffer, rejecting trailing bytes.
    fn from_wire(raw: &[u8]) -> Result<Self, WireError> {
        let mut c = WireCursor::new(raw);
        let v = Self::wire_decode(&mut c)?;
        c.expect_end()?;
        Ok(v)
    }
}

impl<T: for<'a> Codec<'a, Value = T>> Wire for T {
    fn wire_encode(&self, buf: &mut Vec<u8>) {
        T::put(self, buf)
    }

    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, WireError> {
        T::get(c)
    }
}

/// One layout: how a value of type [`Codec::Value`] is written and read.
/// `'a` is the input a decode may borrow from (`&'a [u8]`, `&'a str`); a
/// codec whose value owns its bytes reads from any input.
///
/// A field's codec is named in its declaration, never inferred from the
/// field's type: the integers, `bool`, `String`, `&'a str`, `&'a [u8]`,
/// `Option<C>`, `Vec<C>`, tuples and every declared type are their own
/// codecs; an irregular layout is a named one ([`Nested`], [`Rest`],
/// [`RestStr`], or a zero-sized type of the crate that owns the layout).
pub trait Codec<'a> {
    /// The type this codec writes and reads.
    type Value;
    /// The fewest bytes any value's encoding takes. A counted field bounds
    /// its count by the remaining input over its element's `MIN` before it
    /// allocates, so this must never exceed the true minimum.
    const MIN: usize;
    /// A declared enum's tag bytes, in declaration order (empty for every
    /// other codec).
    const TAGS: &'static [u8] = &[];
    /// Append `v`'s encoding to `buf`.
    fn put(v: &Self::Value, buf: &mut Vec<u8>);
    /// Read one value, advancing the cursor past it.
    fn get(c: &mut WireCursor<'a>) -> Result<Self::Value, WireError>;
}

macro_rules! le_codecs {
    ($($t:ident),*) => {$(
        impl<'a> Codec<'a> for $t {
            type Value = $t;
            const MIN: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(v: &$t, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            #[inline]
            fn get(c: &mut WireCursor<'a>) -> Result<$t, WireError> {
                c.$t()
            }
        }
    )*};
}
le_codecs!(u32, u64);

impl<'a> Codec<'a> for bool {
    type Value = bool;
    const MIN: usize = 1;
    #[inline]
    fn put(v: &bool, buf: &mut Vec<u8>) {
        buf.push(u8::from(*v));
    }
    #[inline]
    fn get(c: &mut WireCursor<'a>) -> Result<bool, WireError> {
        c.bool()
    }
}

/// A `u32`-length-prefixed byte run, borrowed from the input.
impl<'a> Codec<'a> for &'a [u8] {
    type Value = &'a [u8];
    const MIN: usize = 4;
    #[inline]
    fn put(v: &&'a [u8], buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
        buf.extend_from_slice(v);
    }
    #[inline]
    fn get(c: &mut WireCursor<'a>) -> Result<&'a [u8], WireError> {
        c.blob()
    }
}

/// A `u32`-length-prefixed UTF-8 string, borrowed from the input.
impl<'a> Codec<'a> for &'a str {
    type Value = &'a str;
    const MIN: usize = 4;
    #[inline]
    fn put(v: &&'a str, buf: &mut Vec<u8>) {
        <&[u8]>::put(&v.as_bytes(), buf)
    }
    #[inline]
    fn get(c: &mut WireCursor<'a>) -> Result<&'a str, WireError> {
        std::str::from_utf8(c.blob()?).map_err(|_| WireError::Invalid("non-UTF-8 string"))
    }
}

/// The same string, owned.
impl<'a> Codec<'a> for String {
    type Value = String;
    const MIN: usize = 4;
    #[inline]
    fn put(v: &String, buf: &mut Vec<u8>) {
        <&[u8]>::put(&v.as_bytes(), buf)
    }
    #[inline]
    fn get(c: &mut WireCursor<'a>) -> Result<String, WireError> {
        c.str()
    }
}

/// The rest of the input, unprefixed and borrowed: only ever a layout's
/// last field, whose end is the end of the record.
pub struct Rest;

impl<'a> Codec<'a> for Rest {
    type Value = &'a [u8];
    const MIN: usize = 0;
    fn put(v: &&'a [u8], buf: &mut Vec<u8>) {
        buf.extend_from_slice(v);
    }
    fn get(c: &mut WireCursor<'a>) -> Result<&'a [u8], WireError> {
        c.take(c.remaining())
    }
}

/// The rest of the input as an owned UTF-8 string, unprefixed: only ever a
/// layout's last field.
pub struct RestStr;

impl<'a> Codec<'a> for RestStr {
    type Value = String;
    const MIN: usize = 0;
    fn put(v: &String, buf: &mut Vec<u8>) {
        buf.extend_from_slice(v.as_bytes());
    }
    fn get(c: &mut WireCursor<'a>) -> Result<String, WireError> {
        let s = std::str::from_utf8(Rest::get(c)?);
        s.map(str::to_owned).map_err(|_| WireError::Invalid("non-UTF-8 string"))
    }
}

/// A `0`/`1` presence byte, then the value if present.
impl<'a, C: Codec<'a>> Codec<'a> for Option<C> {
    type Value = Option<C::Value>;
    const MIN: usize = 1;
    fn put(v: &Self::Value, buf: &mut Vec<u8>) {
        buf.push(u8::from(v.is_some()));
        if let Some(v) = v {
            C::put(v, buf);
        }
    }
    fn get(c: &mut WireCursor<'a>) -> Result<Self::Value, WireError> {
        Ok(if c.bool()? { Some(C::get(c)?) } else { None })
    }
}

/// A `u32` count, then that many values; the count is bounded by the
/// remaining input (at [`Codec::MIN`] bytes an element) before allocating.
impl<'a, C: Codec<'a>> Codec<'a> for Vec<C> {
    type Value = Vec<C::Value>;
    const MIN: usize = 4;
    fn put(v: &Self::Value, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
        for x in v {
            C::put(x, buf);
        }
    }
    fn get(c: &mut WireCursor<'a>) -> Result<Self::Value, WireError> {
        let n = c.count(C::MIN)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(C::get(c)?);
        }
        Ok(out)
    }
}

macro_rules! tuple_codecs {
    ($(($($c:ident $i:tt),*)),*) => {$(
        /// The values one after another.
        impl<'a, $($c: Codec<'a>),*> Codec<'a> for ($($c,)*) {
            type Value = ($($c::Value,)*);
            const MIN: usize = 0 $(+ $c::MIN)*;
            fn put(v: &Self::Value, buf: &mut Vec<u8>) {
                $($c::put(&v.$i, buf);)*
            }
            fn get(c: &mut WireCursor<'a>) -> Result<Self::Value, WireError> {
                Ok(($($c::get(c)?,)*))
            }
        }
    )*};
}
tuple_codecs!((A 0, B 1), (A 0, B 1, C 2));

/// A value written in place behind its `u32` length, which is patched in
/// once the value is written — a record that keeps its own byte form
/// inside another (a replicated txn in a proposal), at no allocation or
/// copy of its own. The length must cover the value exactly.
pub struct Nested<C>(std::marker::PhantomData<C>);

impl<'a, C: Codec<'a>> Codec<'a> for Nested<C> {
    type Value = C::Value;
    const MIN: usize = 4 + C::MIN;
    fn put(v: &C::Value, buf: &mut Vec<u8>) {
        put_nested(buf, |buf| C::put(v, buf));
    }
    fn get(c: &mut WireCursor<'a>) -> Result<C::Value, WireError> {
        let mut inner = WireCursor::new(c.blob()?);
        let v = C::get(&mut inner)?;
        inner.expect_end()?;
        Ok(v)
    }
}

/// Write what `f` appends behind a `u32` length that is patched in once it
/// is written ([`Nested`]'s layout, for a custom codec).
pub fn put_nested(buf: &mut Vec<u8>, f: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    f(buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

#[doc(hidden)]
pub const fn min_of(xs: &[usize]) -> usize {
    let (mut m, mut i) = (usize::MAX, 0);
    while i < xs.len() {
        if xs[i] < m {
            m = xs[i];
        }
        i += 1;
    }
    m
}

/// Declare a type's layout once; its `Codec` — `put`, `get`, `MIN` and
/// `TAGS` — follows from the declaration. Each field names its codec, and
/// fields are written in the order declared. (Plain names, not links:
/// `dufs-wal` compiles this file too, and exports the macro beside a
/// private `Codec`.)
///
/// ```text
/// wire! { Vote { candidate: PeerId, candidate_zxid: Zxid, round: u64 } }
/// wire! { PeerId { 0: u32 } }                     // a tuple struct
/// wire! { CoordMsg {                              // a tag byte, then the variant's fields
///     1 => Zab { 0: ZabMsg<Txn> },
///     2 => Forward = Forwarded,                   // written whole by a custom codec
///     5 => ForwardReject { tag: u64 },            // tags may leave gaps
/// } }
/// wire! { Stat as StatCodec { czxid: u64, … } }   // a foreign type: a named codec
/// wire! { [T: Codec<'a, Value = T>] ZabMsg<T> { … } } // the impl's generics
/// wire! { StoreReq<'a> { seq: u64 } op: ReqOp { 1 => Write { … }, … } }
///                                                 // the tag, shared fields, then the variant's
/// ```
///
/// A variant without fields is written bare (`11 => Pong`). An unknown tag
/// decodes to `WireError::BadTag`. A new variant is one line with a new
/// tag; a format version is one more field (or tag) in the declaration.
#[macro_export]
macro_rules! wire {
    (@or [] [$($d:tt)*]) => { $($d)* };
    (@or [$($c:tt)+] [$($d:tt)*]) => { $($c)+ };
    (@pick [$($fields:tt)*]) => { $($fields)* };
    (@pick [$($fields:tt)*] [$($custom:tt)*]) => { $($custom)* };
    (@impl [$($g:tt)*] [$codec:ty] [$val:ty] [$v:ident $buf:ident $c:ident] [$($min:tt)*]
        [$($tag:literal)*] { $($put:tt)* } { $($get:tt)* }) => {
        impl<'a, $($g)*> $crate::Codec<'a> for $codec {
            type Value = $val;
            const MIN: usize = $($min)*;
            const TAGS: &'static [u8] = &[$($tag),*];
            #[inline]
            fn put($v: &$val, $buf: &mut Vec<u8>) {
                $($put)*
            }
            #[inline]
            fn get($c: &mut $crate::WireCursor<'a>) -> Result<$val, $crate::WireError> {
                $($get)*
            }
        }
    };
    (@enum [$($g:tt)*] [$val:ty] [$codec:ty] [$v:ident $scrut:expr] [$($hf:ident : $hc:ty),*]
        $en:ident { $($tag:literal => $var:ident $({ $($f:tt : $c:ty),* $(,)? })? $(= $cc:ty)?),* $(,)? }
        [$e:ident $($wrap:tt)*]) => {
        $crate::wire!(@impl [$($g)*] [$codec] [$val] [$v buf c]
            [1 $(+ <$hc as $crate::Codec<'a>>::MIN)* + $crate::wire::min_of(&[$(0
                $($(+ <$c as $crate::Codec<'a>>::MIN)*)? $(+ <$cc as $crate::Codec<'a>>::MIN)?),*])]
            [$($tag)*]
            {
                let e = $scrut;
                buf.push(match e {$($en::$var { .. } => $tag,)*});
                $(<$hc as $crate::Codec<'a>>::put(&$v.$hf, buf);)*
                match e {$($en::$var { .. } => {
                    $($(if let $en::$var { $f: x, .. } = e {
                        <$c as $crate::Codec<'a>>::put(x, buf);
                    })*)?
                    $(<$cc as $crate::Codec<'a>>::put($v, buf);)?
                })*}
            }
            {
                let tag = c.u8()?;
                $(let $hf = <$hc as $crate::Codec<'a>>::get(c)?;)*
                let $e = match tag {
                    $($tag => $crate::wire!(@pick
                        [$en::$var { $($($f: <$c as $crate::Codec<'a>>::get(c)?),*)? }]
                        $([<$cc as $crate::Codec<'a>>::get(c)?])?),)*
                    t => return Err($crate::WireError::BadTag(t)),
                };
                Ok($($wrap)*)
            });
    };
    (@decl [$($g:tt)*] [$val:ty] [$codec:ty] $ty:ident { $($hf:ident : $hc:ty),* $(,)? }
        $ef:ident : $en:ident { $($variants:tt)* }) => {
        $crate::wire!(@enum [$($g)*] [$val] [$codec] [v &v.$ef] [$($hf : $hc),*]
            $en { $($variants)* } [e $ty { $($hf,)* $ef: e }]);
    };
    (@decl [$($g:tt)*] [$val:ty] [$codec:ty] $ty:ident { $($f:tt : $c:ty),* $(,)? }) => {
        $crate::wire!(@impl [$($g)*] [$codec] [$val] [v buf c]
            [0 $(+ <$c as $crate::Codec<'a>>::MIN)*] []
            { $(<$c as $crate::Codec<'a>>::put(&v.$f, buf);)* }
            { Ok($ty { $($f: <$c as $crate::Codec<'a>>::get(c)?),* }) });
    };
    (@decl [$($g:tt)*] [$val:ty] [$codec:ty] $en:ident { $($variants:tt)* }) => {
        $crate::wire!(@enum [$($g)*] [$val] [$codec] [v v] [] $en { $($variants)* } [e e]);
    };
    ($([$($g:tt)*])? $ty:ident $(<$($p:tt),*>)? $(as $codec:ty)? { $($body:tt)* } $($rest:tt)*) => {
        $crate::wire!(@decl [$($($g)*)?] [$ty $(<$($p),*>)?]
            [$crate::wire!(@or [$($codec)?] [$ty $(<$($p),*>)?])] $ty { $($body)* } $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads_are_bounds_checked() {
        let mut c = WireCursor::new(&[1, 2, 3]);
        assert_eq!(c.u8(), Ok(1));
        assert_eq!(c.u32(), Err(WireError::Truncated));
        assert_eq!(c.remaining(), 2);
    }

    #[test]
    fn blob_length_is_validated_before_allocation() {
        // Length claims 4 GiB; only 2 bytes follow.
        let raw = [0xFF, 0xFF, 0xFF, 0xFF, 1, 2];
        let mut c = WireCursor::new(&raw);
        assert_eq!(c.blob(), Err(WireError::Truncated));
    }

    #[test]
    fn count_is_bounded_by_remaining_input() {
        let mut raw = 1_000_000u32.to_le_bytes().to_vec();
        raw.extend_from_slice(&[0; 8]);
        let mut c = WireCursor::new(&raw);
        assert_eq!(c.count(2), Err(WireError::Invalid("collection count exceeds input")));
    }

    #[test]
    fn expect_end_rejects_trailing() {
        let mut c = WireCursor::new(&[7, 8]);
        assert_eq!(c.u8(), Ok(7));
        assert_eq!(c.expect_end(), Err(WireError::Trailing));
        assert_eq!(c.u8(), Ok(8));
        assert_eq!(c.expect_end(), Ok(()));
    }

    #[test]
    fn str_round_trips() {
        let mut buf = Vec::new();
        String::put(&"héllo/ünicode".to_string(), &mut buf);
        let mut c = WireCursor::new(&buf);
        assert_eq!(c.str().unwrap(), "héllo/ünicode");
        c.expect_end().unwrap();
    }
}
