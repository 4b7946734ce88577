//! The workspace's binary codec: one vocabulary for [`Value`]s and for the
//! messages that carry them.
//!
//! Two things need a stable byte representation: context snapshots and
//! migration payloads (§5.2, §5.3), which are [`Value`]s, and the steps of
//! the event and migration protocols (§4, §5), which are `aeon-cluster`'s
//! messages.  Both are written in one pass by the same three pieces:
//!
//! * a [`Sink`] takes bytes — a `Vec<u8>` keeps them, a [`ByteCount`] only
//!   counts them, so every length this module reports is the encoder run
//!   against the counter;
//! * a [`WireReader`] hands bytes back out of a borrowed frame and is the
//!   one place that refuses hostile input: a short buffer, an element count
//!   whose elements could not fit in the bytes behind it (each is at least
//!   its type's [`Wire::MIN_LEN`]), a value nested deeper than
//!   [`MAX_DEPTH`], trailing bytes — each an [`AeonError::Codec`], never a
//!   panic and never an allocation sized by the sender;
//! * [`Wire`] says how one type is written and read.  It is implemented
//!   here for the leaves the protocol uses, and the [`wire!`](crate::wire)
//!   macro derives it for a struct or an enum from a single field list.
//!
//! Integers and ids are fixed-width big-endian (`usize` travels as `u64`),
//! `bool` and the `Option` / `Result` / [`AccessMode`] discriminants are one
//! byte that must be 0 or 1, strings and sequences carry a `u32` length or
//! count.  A [`Value`] is tag-length-value (the tags are private to this
//! module); [`encode`] puts one version byte in front of it.

use crate::access::AccessMode;
use crate::error::{AeonError, Result};
use crate::ids::{ClientId, ContextId, EventId, ServerId};
use crate::metrics::LatencyHistogram;
use crate::thin::ThinList;
use crate::value::{Args, Value};
use bytes::Bytes;
use std::collections::BTreeMap;

/// Version byte in front of an [`encode`]d value.
const VERSION: u8 = 1;

/// How deep lists and maps may nest inside a decoded [`Value`].  The
/// decoder recurses once per level, so without a bound a small frame of
/// nested list headers overflows the stack of the thread that reads it.
pub const MAX_DEPTH: usize = 512;

/// Type tags.
mod tag {
    pub const NULL: u8 = 0;
    pub const BOOL_FALSE: u8 = 1;
    pub const BOOL_TRUE: u8 = 2;
    pub const INT: u8 = 3;
    pub const FLOAT: u8 = 4;
    pub const STR: u8 = 5;
    pub const BYTES: u8 = 6;
    pub const CONTEXT_REF: u8 = 7;
    pub const LIST: u8 = 8;
    pub const MAP: u8 = 9;
}

/// Encodes a [`Value`] into a byte buffer.
///
/// # Examples
///
/// ```
/// use aeon_types::{codec, Value};
/// let v = Value::from(vec![1i64, 2, 3]);
/// let bytes = codec::encode(&v);
/// assert_eq!(codec::decode(&bytes).unwrap(), v);
/// ```
pub fn encode(value: &Value) -> Bytes {
    let mut buf = Vec::with_capacity(64);
    encode_into(value, &mut buf);
    Bytes::from(buf)
}

/// Appends the bytes [`encode`] would produce to `out`, so a caller that
/// frames the value (the TCP transport) encodes it where it is sent from.
///
/// # Examples
///
/// ```
/// use aeon_types::{codec, Value};
/// let v = Value::from("framed");
/// let mut out = vec![0xAA];
/// codec::encode_into(&v, &mut out);
/// assert_eq!(out[1..], codec::encode(&v)[..]);
/// ```
pub fn encode_into(value: &Value, out: &mut Vec<u8>) {
    put_framed(VERSION, value, out);
}

/// Decodes a [`Value`] previously produced by [`encode`].
///
/// # Errors
///
/// Returns [`AeonError::Codec`] when the buffer is truncated, has an unknown
/// version, contains an unknown tag, nests deeper than [`MAX_DEPTH`], or
/// continues past the value.
pub fn decode(bytes: &[u8]) -> Result<Value> {
    get_framed(VERSION, bytes)
}

/// The exact size in bytes of what [`encode`] would produce: the encoder
/// run against a [`ByteCount`], so nothing is allocated and the two cannot
/// disagree.
///
/// # Examples
///
/// ```
/// use aeon_types::{codec, Value};
/// let v = Value::from(vec![1i64, 2, 3]);
/// assert_eq!(codec::encoded_len(&v), codec::encode(&v).len());
/// ```
pub fn encoded_len(value: &Value) -> usize {
    framed_len(VERSION, value)
}

/// Writes `[version][value]`: the framing of an [`encode`]d [`Value`] and
/// of a cluster message.
pub fn put_framed<T: Wire>(version: u8, value: &T, w: &mut impl Sink) {
    w.put_u8(version);
    value.put(w);
}

/// The number of bytes [`put_framed`] writes.
pub fn framed_len<T: Wire>(version: u8, value: &T) -> usize {
    let mut count = ByteCount::default();
    put_framed(version, value, &mut count);
    count.0
}

/// Reads what [`put_framed`] wrote; `bytes` must hold exactly that.
///
/// # Errors
///
/// Returns [`AeonError::Codec`] for an empty buffer, another version byte,
/// anything `T` refuses, and bytes left over after it.
pub fn get_framed<T: Wire>(version: u8, bytes: &[u8]) -> Result<T> {
    let mut r = WireReader::new(bytes);
    let found = u8::get(&mut r)?;
    if found != version {
        return Err(AeonError::Codec(format!(
            "unknown codec version {found}, expected {version}"
        )));
    }
    let value = T::get(&mut r)?;
    match r.remaining() {
        0 => Ok(value),
        extra => Err(AeonError::Codec(format!("{extra} trailing bytes"))),
    }
}

/// Where an encoder writes.
pub trait Sink {
    /// Appends `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, byte: u8) {
        self.put_slice(&[byte]);
    }
}

impl Sink for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    fn put_u8(&mut self, byte: u8) {
        self.push(byte);
    }
}

/// A [`Sink`] that keeps only the number of bytes written to it.
#[derive(Debug, Default)]
pub struct ByteCount(pub usize);

impl Sink for ByteCount {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// A cursor over a received frame.  Everything a decoder takes from the
/// frame goes through `take`, which is where a short buffer is refused.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    depth: usize,
}

impl<'a> WireReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, depth: 0 }
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes, or [`AeonError::Codec`] when fewer remain.
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() {
            return Err(AeonError::Codec(format!(
                "need {n} bytes, only {} remaining",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// A `u32` count of `T`s.  Every element occupies at least
    /// [`Wire::MIN_LEN`] bytes (and at least one, so a count of empty
    /// elements is bounded too), so a count whose elements cannot fit in what
    /// remains is a lie and is refused before anything is reserved for it:
    /// the one allocation rule of the decoder.
    fn count<T: Wire>(&mut self) -> Result<usize> {
        let count = u32::get(self)? as usize;
        let needed = count.saturating_mul(T::MIN_LEN.max(1));
        if needed > self.remaining() {
            return Err(AeonError::Codec(format!(
                "{count} elements announced, only {} bytes remaining for {needed}",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// A `u32` length and that many bytes.
    fn run(&mut self) -> Result<&'a [u8]> {
        let len = u32::get(self)? as usize;
        self.take(len)
    }

    /// Runs `body` one nesting level down.
    fn nested<T>(&mut self, body: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_DEPTH {
            return Err(AeonError::Codec(format!(
                "value nested deeper than {MAX_DEPTH}"
            )));
        }
        self.depth += 1;
        let out = body(self);
        self.depth -= 1;
        out
    }
}

/// A type with a byte representation: `get` reads back what `put` wrote.
pub trait Wire: Sized {
    /// A lower bound on the bytes `put` writes for any value of the type.  A
    /// decoder refuses a count of elements that could not fit in the frame
    /// at this size each, so it must never exceed a real encoding — it may
    /// understate.  A fixed-width leaf states its width, a struct the sum of
    /// its fields, an enum its one tag byte.
    const MIN_LEN: usize = 1;

    /// Writes `self`.
    fn put(&self, w: &mut impl Sink);

    /// Reads one `Self`.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::Codec`] on malformed input.
    fn get(r: &mut WireReader<'_>) -> Result<Self>;
}

fn put_len(w: &mut impl Sink, len: usize) {
    (len as u32).put(w);
}

/// What [`WireReader::run`] reads: a `u32` length and the bytes.
fn put_run(w: &mut impl Sink, bytes: &[u8]) {
    put_len(w, bytes.len());
    w.put_slice(bytes);
}

/// Checks a UTF-8 run: the one place a string is validated.
fn utf8(run: &[u8]) -> Result<&str> {
    std::str::from_utf8(run).map_err(|e| AeonError::Codec(e.to_string()))
}

/// What `Vec<T>` reads: a `u32` count and the elements.
fn put_all<T: Wire>(w: &mut impl Sink, items: &[T]) {
    put_len(w, items.len());
    items.iter().for_each(|item| item.put(w));
}

impl Wire for Value {
    fn put(&self, w: &mut impl Sink) {
        match self {
            Value::Null => w.put_u8(tag::NULL),
            Value::Bool(false) => w.put_u8(tag::BOOL_FALSE),
            Value::Bool(true) => w.put_u8(tag::BOOL_TRUE),
            Value::Int(i) => {
                w.put_u8(tag::INT);
                i.put(w);
            }
            Value::Float(x) => {
                w.put_u8(tag::FLOAT);
                x.put(w);
            }
            Value::Str(s) => {
                w.put_u8(tag::STR);
                put_run(w, s.as_bytes());
            }
            Value::Bytes(b) => {
                w.put_u8(tag::BYTES);
                put_run(w, b);
            }
            Value::ContextRef(c) => {
                w.put_u8(tag::CONTEXT_REF);
                c.put(w);
            }
            Value::List(items) => {
                w.put_u8(tag::LIST);
                put_all(w, items);
            }
            Value::Map(map) => {
                w.put_u8(tag::MAP);
                put_len(w, map.len());
                for (k, v) in map.iter() {
                    k.put(w);
                    v.put(w);
                }
            }
        }
    }

    /// Each heap variant is read straight into its block: a string or a
    /// byte string is one block copied from the frame, a list one block of
    /// exactly its length that its values are decoded into, a map its nodes
    /// and one block for the box.
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match u8::get(r)? {
            tag::NULL => Value::Null,
            tag::BOOL_FALSE => Value::Bool(false),
            tag::BOOL_TRUE => Value::Bool(true),
            tag::INT => Value::Int(Wire::get(r)?),
            tag::FLOAT => Value::Float(Wire::get(r)?),
            tag::STR => Value::Str(utf8(r.run()?)?.into()),
            tag::BYTES => Value::Bytes(r.run()?.into()),
            tag::CONTEXT_REF => Value::ContextRef(Wire::get(r)?),
            tag::LIST => Value::List(r.nested(get_list)?),
            tag::MAP => r.nested(|r| {
                let mut map = BTreeMap::new();
                for _ in 0..r.count::<(String, Value)>()? {
                    let key = String::get(r)?;
                    map.insert(key, Wire::get(r)?);
                }
                Ok(Value::Map(Box::new(map)))
            })?,
            other => return Err(AeonError::Codec(format!("unknown tag {other}"))),
        })
    }
}

macro_rules! wire_numbers {
    ($($number:ty),*) => {$(
        impl Wire for $number {
            const MIN_LEN: usize = std::mem::size_of::<$number>();

            fn put(&self, w: &mut impl Sink) {
                w.put_slice(&self.to_be_bytes());
            }

            fn get(r: &mut WireReader<'_>) -> Result<Self> {
                Ok(Self::from_be_bytes(r.array()?))
            }
        }
    )*};
}
wire_numbers!(u8, u32, u64, i64, f64);

impl Wire for usize {
    const MIN_LEN: usize = u64::MIN_LEN;

    fn put(&self, w: &mut impl Sink) {
        (*self as u64).put(w);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let wide = u64::get(r)?;
        usize::try_from(wide)
            .map_err(|_| AeonError::Codec(format!("size {wide} does not fit this host")))
    }
}

impl Wire for bool {
    fn put(&self, w: &mut impl Sink) {
        w.put_u8(u8::from(*self));
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(AeonError::Codec(format!("bad flag byte {other}"))),
        }
    }
}

impl Wire for () {
    const MIN_LEN: usize = 0;

    fn put(&self, _: &mut impl Sink) {}

    fn get(_: &mut WireReader<'_>) -> Result<Self> {
        Ok(())
    }
}

impl Wire for String {
    const MIN_LEN: usize = u32::MIN_LEN;

    fn put(&self, w: &mut impl Sink) {
        put_run(w, self.as_bytes());
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        utf8(r.run()?).map(str::to_owned)
    }
}

macro_rules! wire_ids {
    ($($id:ident: $raw:ty),*) => {$(
        impl Wire for $id {
            const MIN_LEN: usize = <$raw as Wire>::MIN_LEN;

            fn put(&self, w: &mut impl Sink) {
                self.raw().put(w);
            }

            fn get(r: &mut WireReader<'_>) -> Result<Self> {
                Wire::get(r).map(Self::new)
            }
        }
    )*};
}
wire_ids!(ContextId: u64, EventId: u64, ServerId: u32, ClientId: u64);

impl Wire for AccessMode {
    fn put(&self, w: &mut impl Sink) {
        self.is_read_only().put(w);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(if bool::get(r)? {
            AccessMode::ReadOnly
        } else {
            AccessMode::Exclusive
        })
    }
}

/// Written like a `Vec<Value>`; a list of at most one value is read without
/// a block, a longer one straight into its block.
impl Wire for Args {
    const MIN_LEN: usize = u32::MIN_LEN;

    fn put(&self, w: &mut impl Sink) {
        put_all(w, self.as_slice());
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.count::<Value>()? {
            0 => Args::empty(),
            1 => Args::from([Wire::get(r)?]),
            count => Args::from(get_values(r, count)?),
        })
    }
}

/// Reads a `u32` count and that many values into one block of exactly that
/// length.
fn get_list(r: &mut WireReader<'_>) -> Result<ThinList> {
    let count = r.count::<Value>()?;
    get_values(r, count)
}

/// Reads the `count` values [`put_all`] wrote after the count into one
/// block; a value that fails to decode drops the ones before it and frees
/// the block.
fn get_values(r: &mut WireReader<'_>, count: usize) -> Result<ThinList> {
    ThinList::try_from_fn(count, || Wire::get(r))
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = u32::MIN_LEN;

    fn put(&self, w: &mut impl Sink) {
        put_all(w, self);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let count = r.count::<T>()?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut impl Sink) {
        self.is_some().put(w);
        if let Some(inner) = self {
            inner.put(w);
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for Result<T> {
    fn put(&self, w: &mut impl Sink) {
        self.is_ok().put(w);
        match self {
            Ok(value) => value.put(w),
            Err(error) => error.put(w),
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(if bool::get(r)? {
            Ok(T::get(r)?)
        } else {
            Err(AeonError::get(r)?)
        })
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN_LEN: usize = T::MIN_LEN;

    fn put(&self, w: &mut impl Sink) {
        (**self).put(w);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        T::get(r).map(Box::new)
    }
}

macro_rules! wire_tuples {
    ($(($($item:ident . $index:tt),+))*) => {$(
        impl<$($item: Wire),+> Wire for ($($item,)+) {
            const MIN_LEN: usize = 0 $(+ $item::MIN_LEN)+;

            fn put(&self, w: &mut impl Sink) {
                $(self.$index.put(w);)+
            }

            fn get(r: &mut WireReader<'_>) -> Result<Self> {
                Ok(($($item::get(r)?,)+))
            }
        }
    )*};
}
wire_tuples!((A.0, B.1)(A.0, B.1, C.2));

/// Histograms ship sparsely: the summary scalars, then `(bucket, count)`
/// for the non-empty buckets only, so an idle node's report stays small.
impl Wire for LatencyHistogram {
    fn put(&self, w: &mut impl Sink) {
        self.count.put(w);
        self.total_micros.put(w);
        self.min_micros.put(w);
        self.max_micros.put(w);
        let filled = || self.buckets.iter().enumerate().filter(|(_, n)| **n > 0);
        put_len(w, filled().count());
        filled().for_each(|(bucket, n)| (bucket, *n).put(w));
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let mut histogram = LatencyHistogram {
            count: Wire::get(r)?,
            total_micros: Wire::get(r)?,
            min_micros: Wire::get(r)?,
            max_micros: Wire::get(r)?,
            ..Default::default()
        };
        for (bucket, n) in Vec::<(usize, u64)>::get(r)? {
            *histogram.buckets.get_mut(bucket).ok_or_else(|| {
                AeonError::Codec(format!("latency bucket {bucket} out of range"))
            })? = n;
        }
        Ok(histogram)
    }
}

/// The [`Wire::MIN_LEN`] of the field that `field` borrows, so that the
/// [`wire!`](crate::wire) macro, which names a struct's fields but not their
/// types, can sum them.
#[doc(hidden)]
pub const fn field_min_len<S, T: Wire>(_field: fn(&S) -> &T) -> usize {
    T::MIN_LEN
}

/// Implements [`Wire`](crate::codec::Wire) for a struct or an enum from one
/// list of its fields, which drives both directions: `put` writes them in
/// the order listed and `get` reads them back in that order.
///
/// An enum variant is written as the `u8` tag stated beside it, then its
/// fields.  Tags are part of the format: they are explicit so that adding
/// or reordering variants cannot renumber the others, and a tag that is
/// retired must not be reused.  A struct's [`Wire::MIN_LEN`] is the sum of
/// its fields', an enum's the one tag byte.  Leaving a field or a variant out does not
/// compile.
///
/// ```
/// use aeon_types::codec::{self, Wire};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Circle(u32),
///     Rect { w: u32, h: u32 },
/// }
/// aeon_types::wire! { enum Shape { 0 => Dot, 1 => Circle(radius), 2 => Rect { w, h } } }
///
/// let mut bytes = Vec::new();
/// Shape::Rect { w: 3, h: 4 }.put(&mut bytes);
/// assert_eq!(bytes, [2, 0, 0, 0, 3, 0, 0, 0, 4]);
/// let back = Shape::get(&mut codec::WireReader::new(&bytes)).unwrap();
/// assert_eq!(back, Shape::Rect { w: 3, h: 4 });
/// assert!(Shape::get(&mut codec::WireReader::new(&[9])).is_err());
/// ```
#[macro_export]
macro_rules! wire {
    (@get $r:ident $field:ident) => {
        $crate::codec::Wire::get($r)?
    };
    (struct $name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::codec::Wire for $name {
            const MIN_LEN: usize = 0 $(+ $crate::codec::field_min_len(|s: &Self| &s.$field))*;

            fn put(&self, w: &mut impl $crate::codec::Sink) {
                $($crate::codec::Wire::put(&self.$field, w);)*
            }

            fn get(r: &mut $crate::codec::WireReader<'_>) -> $crate::Result<Self> {
                Ok(Self { $($field: $crate::wire!(@get r $field)),* })
            }
        }
    };
    (enum $name:ident {
        $($tag:literal => $variant:ident $({ $($field:ident),* })? $(( $($item:ident),* ))?),* $(,)?
    }) => {
        impl $crate::codec::Wire for $name {
            fn put(&self, w: &mut impl $crate::codec::Sink) {
                match self {
                    $(Self::$variant $({ $($field),* })? $(( $($item),* ))? => {
                        $crate::codec::Sink::put_u8(w, $tag);
                        $($($crate::codec::Wire::put($field, w);)*)?
                        $($($crate::codec::Wire::put($item, w);)*)?
                    })*
                }
            }

            fn get(r: &mut $crate::codec::WireReader<'_>) -> $crate::Result<Self> {
                Ok(match <u8 as $crate::codec::Wire>::get(r)? {
                    $($tag => Self::$variant
                        $({ $($field: $crate::wire!(@get r $field)),* })?
                        $(( $($crate::wire!(@get r $item)),* ))?,)*
                    other => {
                        return Err($crate::AeonError::Codec(format!(
                            concat!("unknown ", stringify!($name), " tag {}"),
                            other
                        )))
                    }
                })
            }
        }
    };
}

// The match in `put` is exhaustive here, in the defining crate, so a new
// error variant has to be given a tag before this compiles.
wire! { enum AeonError {
    0 => ContextNotFound(context),
    1 => ServerNotFound(server),
    2 => EventNotFound(event),
    3 => CycleDetected { from, to },
    4 => ClassCycleDetected { description },
    5 => OwnershipViolation { caller, callee, detail },
    6 => AnalysisRejected { errors, report },
    7 => ReadOnlyViolation { context, method },
    8 => UnknownMethod { class, method },
    9 => BadArguments { method, reason },
    10 => Application(message),
    11 => Panicked { reason },
    12 => MigrationInProgress(context),
    13 => MigrationFailed { context, reason },
    14 => SnapshotFailed { context, reason },
    15 => RuntimeShutdown,
    16 => Storage(message),
    17 => EventAborted { event, reason },
    18 => SendQueueFull { peer },
    19 => Codec(message),
    20 => Config(message),
    21 => Internal(message),
} }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LATENCY_BUCKETS;
    use proptest::prelude::*;

    fn roundtrip(v: &Value) {
        let bytes = encode(v);
        let decoded = decode(&bytes).expect("decode");
        assert_eq!(&decoded, v);
    }

    #[test]
    fn scalars_round_trip() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::Int(-12345));
        roundtrip(&Value::Int(i64::MAX));
        roundtrip(&Value::Float(3.25));
        roundtrip(&Value::from("hello world"));
        roundtrip(&Value::from(vec![0u8, 1, 2, 255]));
        roundtrip(&Value::ContextRef(ContextId::new(u64::MAX)));
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::map([
            (
                "players",
                Value::from(vec![ContextId::new(1), ContextId::new(2)]),
            ),
            ("gold", Value::from(100i64)),
            (
                "inventory",
                Value::from(vec![
                    Value::map([("sword", Value::Bool(true))]),
                    Value::Null,
                ]),
            ),
        ]);
        roundtrip(&v);
    }

    #[test]
    fn empty_buffer_is_rejected() {
        assert!(matches!(decode(&[]), Err(AeonError::Codec(_))));
    }

    #[test]
    fn unknown_version_is_rejected() {
        assert!(matches!(decode(&[9, tag::NULL]), Err(AeonError::Codec(_))));
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let bytes = encode(&Value::Int(7));
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&Value::Int(7)).to_vec();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn empty_containers_round_trip() {
        roundtrip(&Value::List(Default::default()));
        roundtrip(&Value::Map(Box::default()));
        roundtrip(&Value::Str(Default::default()));
        roundtrip(&Value::Bytes(Default::default()));
        roundtrip(&Value::map([("empty", Value::List(Default::default()))]));
    }

    #[test]
    fn non_utf8_byte_payloads_round_trip() {
        // Invalid UTF-8 sequences must survive as Bytes (and must NOT be
        // decodable as Str).
        let payload = vec![0xff, 0xfe, 0x80, 0xc0, 0x00, 0xf5];
        assert!(String::from_utf8(payload.clone()).is_err());
        roundtrip(&Value::from(payload.clone()));

        // A Str frame whose body is not UTF-8 is rejected, not mangled.
        let mut forged = encode(&Value::from(payload)).to_vec();
        forged[1] = tag::STR;
        assert!(matches!(decode(&forged), Err(AeonError::Codec(_))));
    }

    #[test]
    fn deeply_nested_values_round_trip() {
        let mut v = Value::Int(0);
        for depth in 0..256 {
            v = if depth % 2 == 0 {
                Value::from(vec![v])
            } else {
                Value::map([("d", v)])
            };
        }
        roundtrip(&v);
    }

    /// `depth` one-element list headers around a null.
    fn nested_lists(depth: usize) -> Vec<u8> {
        let mut bytes = vec![VERSION];
        for _ in 0..depth {
            bytes.extend_from_slice(&[tag::LIST, 0, 0, 0, 1]);
        }
        bytes.push(tag::NULL);
        bytes
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        // Runs on a default 2 MiB test thread, the stack a TCP reader
        // thread also gets; unbounded, the first frame aborts the process.
        assert!(decode(&nested_lists(MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 1, 200_000] {
            let err = decode(&nested_lists(depth)).unwrap_err();
            assert!(err.to_string().contains("nested deeper"), "{err}");
        }
    }

    #[test]
    fn a_count_larger_than_the_frame_is_refused_before_reserving() {
        for container in [tag::LIST, tag::MAP] {
            let err = decode(&[VERSION, container, 0xff, 0xff, 0xff, 0xff, 0]).unwrap_err();
            assert!(err.to_string().contains("announced"), "{err}");
        }
        let err = get_framed::<Args>(VERSION, &[VERSION, 0xff, 0xff, 0xff, 0xff, 0]).unwrap_err();
        assert!(err.to_string().contains("announced"), "{err}");
        // The largest count the bytes behind it can back is accepted.
        let two_nulls = [VERSION, tag::LIST, 0, 0, 0, 2, tag::NULL, tag::NULL];
        assert_eq!(
            decode(&two_nulls).unwrap(),
            Value::from(vec![Value::Null; 2])
        );
    }

    #[test]
    fn a_count_whose_elements_cannot_fit_is_refused_before_reserving() {
        // 2^20 context ids announced with 2^20 bytes behind them would have
        // reserved 8 MiB from a 1 MiB frame under a one-byte-per-element rule.
        let mut frame = (1u32 << 20).to_be_bytes().to_vec();
        frame.resize(4 + (1 << 20), 0);
        let err = Vec::<ContextId>::get(&mut WireReader::new(&frame)).unwrap_err();
        assert!(
            err.to_string().contains("1048576 elements announced"),
            "{err}"
        );
        // Eight bytes behind each, the same count is read.
        frame.resize(4 + (8 << 20), 0);
        let ids = Vec::<ContextId>::get(&mut WireReader::new(&frame)).unwrap();
        assert_eq!(ids.len(), 1 << 20);
    }

    #[test]
    fn min_len_is_the_fixed_width_or_the_sum_of_the_parts() {
        assert_eq!(
            [
                u8::MIN_LEN,
                u32::MIN_LEN,
                u64::MIN_LEN,
                usize::MIN_LEN,
                bool::MIN_LEN
            ],
            [1, 4, 8, 8, 1]
        );
        assert_eq!(
            [ServerId::MIN_LEN, ContextId::MIN_LEN, <()>::MIN_LEN],
            [4, 8, 0]
        );
        assert_eq!(
            [String::MIN_LEN, Args::MIN_LEN, Vec::<u64>::MIN_LEN],
            [4, 4, 4]
        );
        assert_eq!(
            [Value::MIN_LEN, AeonError::MIN_LEN, Option::<u64>::MIN_LEN],
            [1, 1, 1]
        );
        assert_eq!(<(ServerId, ContextId, String)>::MIN_LEN, 16);
        assert_eq!(Box::<u64>::MIN_LEN, 8);
    }

    /// What `value.put` writes.
    fn encoded<T: Wire>(value: &T) -> Vec<u8> {
        let mut bytes = Vec::new();
        value.put(&mut bytes);
        bytes
    }

    #[test]
    fn flag_bytes_sizes_and_buckets_are_range_checked() {
        fn get<T: Wire>(bytes: &[u8]) -> Result<T> {
            T::get(&mut WireReader::new(bytes))
        }
        assert_eq!(get::<Option<u8>>(&[1, 7]).unwrap(), Some(7));
        assert!(get::<Option<u8>>(&[2, 7]).is_err());
        assert!(get::<bool>(&[0xff]).is_err());
        assert!(get::<AccessMode>(&[2]).is_err());
        assert!(get::<Result<u8>>(&[3, 0]).is_err());
        assert!(get::<String>(&[0, 0, 0, 2, 0xc3, 0x28]).is_err());
        assert!(get::<AeonError>(&[200]).is_err());
        assert!(get::<u64>(&[0; 7]).is_err());

        let mut histogram = LatencyHistogram::new();
        histogram.record(120);
        histogram.record(90_000);
        let mut bytes = Vec::new();
        histogram.put(&mut bytes);
        assert_eq!(get::<LatencyHistogram>(&bytes).unwrap(), histogram);
        // The first bucket index sits after four u64 scalars and the count.
        let index = 4 * 8 + 4;
        bytes[index..index + 8].copy_from_slice(&(LATENCY_BUCKETS as u64).to_be_bytes());
        let err = get::<LatencyHistogram>(&bytes).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn encoded_len_matches_encode_for_edge_cases() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::from("ünïcode"),
            Value::from(vec![0xffu8; 17]),
            Value::ContextRef(ContextId::new(0)),
            Value::List(Default::default()),
            Value::Map(Box::default()),
            Value::map([("k", Value::from(vec![Value::Null, Value::Bool(false)]))]),
        ] {
            assert_eq!(encoded_len(&v), encode(&v).len(), "value: {v:?}");
        }
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<f64>()
                .prop_filter("finite", |f| f.is_finite())
                .prop_map(Value::Float),
            "[a-z]{0,16}".prop_map(Value::from),
            proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::from),
            any::<u64>().prop_map(|r| Value::ContextRef(ContextId::new(r))),
        ];
        leaf.prop_recursive(3, 64, 8, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..8).prop_map(Value::from),
                proptest::collection::btree_map("[a-z]{1,8}", inner, 0..8).prop_map(Value::map),
            ]
        })
    }

    /// `values` through the array constructor that `args!` expands to.
    fn args_from_array(values: &[Value]) -> Args {
        fn array<const N: usize>(values: &[Value]) -> Args {
            Args::from(<[Value; N]>::try_from(values.to_vec()).expect("N values"))
        }
        match values.len() {
            0 => array::<0>(values),
            1 => array::<1>(values),
            2 => array::<2>(values),
            3 => array::<3>(values),
            4 => array::<4>(values),
            5 => array::<5>(values),
            6 => array::<6>(values),
            n => panic!("no array constructor for {n} values"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 5_000 }
        ))]

        #[test]
        fn any_value_round_trips(v in arb_value()) {
            let bytes = encode(&v);
            let decoded = decode(&bytes).unwrap();
            prop_assert_eq!(decoded, v);
        }

        #[test]
        fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode(&bytes);
        }

        #[test]
        fn encoded_len_matches_encode(v in arb_value()) {
            prop_assert_eq!(encoded_len(&v), encode(&v).len());
        }

        /// A minimum length above a real encoding would refuse an honest
        /// count of such elements.
        #[test]
        fn min_len_never_exceeds_an_encoding(v in arb_value(), key in "[a-z]{0,8}") {
            prop_assert!(Value::MIN_LEN <= encoded(&v).len());
            let entry = (key, v);
            prop_assert!(<(String, Value)>::MIN_LEN <= encoded(&entry).len());
        }

        #[test]
        fn args_agree_with_a_vec_model(model in proptest::collection::vec(arb_value(), 0..7)) {
            let mut framed = Vec::new();
            put_framed(VERSION, &Args::new(model.clone()), &mut framed);
            let built = [
                Args::new(model.clone()),
                model.iter().cloned().collect(),
                args_from_array(&model),
                get_framed::<Args>(VERSION, &framed).unwrap(),
            ];
            let shorter = Args::new(model[..model.len().saturating_sub(1)].to_vec());
            let debug = format!("Args({model:?})");
            for args in &built {
                prop_assert_eq!(args.len(), model.len());
                prop_assert_eq!(args.is_empty(), model.is_empty());
                for idx in 0..=model.len() {
                    prop_assert_eq!(args.get(idx), model.get(idx));
                }
                prop_assert!(args.iter().eq(&model));
                prop_assert_eq!(args.clone().into_inner(), model.clone());
                prop_assert!(built.iter().all(|other| other == args));
                prop_assert_eq!(*args == shorter, model.is_empty());
                prop_assert_eq!(format!("{args:?}"), debug.clone());
            }
        }
    }
}
