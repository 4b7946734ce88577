//! A small, self-contained binary codec for [`Value`]s.
//!
//! Context snapshots (fault tolerance, §5.3) and migration payloads (§5.2)
//! need a stable byte representation.  Rather than pulling in a full
//! serialisation framework we encode the [`Value`] data model directly with
//! a tag-length-value scheme.  The format is versioned with a single leading
//! byte so it can evolve.

use crate::error::{AeonError, Result};
use crate::ids::ContextId;
use crate::value::Value;
use bytes::{Buf, BufMut, Bytes};
use std::collections::BTreeMap;

/// Current encoding version.
const VERSION: u8 = 1;

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
    out.put_u8(VERSION);
    encode_one(value, out);
}

/// Decodes a [`Value`] previously produced by [`encode`].
///
/// # Errors
///
/// Returns [`AeonError::Codec`] when the buffer is truncated, has an unknown
/// version, or contains an unknown tag.
pub fn decode(bytes: &[u8]) -> Result<Value> {
    let mut buf = bytes;
    if buf.remaining() < 1 {
        return Err(AeonError::Codec("empty buffer".into()));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(AeonError::Codec(format!("unknown codec version {version}")));
    }
    let value = decode_one(&mut buf)?;
    if buf.has_remaining() {
        return Err(AeonError::Codec(format!(
            "{} trailing bytes after value",
            buf.remaining()
        )));
    }
    Ok(value)
}

/// Computes the exact size in bytes that [`encode`] would produce, without
/// allocating or encoding.
///
/// The channel transport uses this to report honest byte counters for
/// messages that never actually cross a wire.
///
/// # Examples
///
/// ```
/// use aeon_types::{codec, Value};
/// let v = Value::from(vec![1i64, 2, 3]);
/// assert_eq!(codec::encoded_len(&v), codec::encode(&v).len());
/// ```
pub fn encoded_len(value: &Value) -> usize {
    1 + body_len(value)
}

/// Size of one encoded value, excluding the version byte.
fn body_len(value: &Value) -> usize {
    match value {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) | Value::ContextRef(_) => 1 + 8,
        Value::Str(s) => 1 + 4 + s.len(),
        Value::Bytes(b) => 1 + 4 + b.len(),
        Value::List(items) => 1 + 4 + items.iter().map(body_len).sum::<usize>(),
        Value::Map(map) => {
            1 + 4
                + map
                    .iter()
                    .map(|(k, v)| 4 + k.len() + body_len(v))
                    .sum::<usize>()
        }
    }
}

fn encode_one(value: &Value, buf: &mut Vec<u8>) {
    match value {
        Value::Null => buf.put_u8(tag::NULL),
        Value::Bool(false) => buf.put_u8(tag::BOOL_FALSE),
        Value::Bool(true) => buf.put_u8(tag::BOOL_TRUE),
        Value::Int(i) => {
            buf.put_u8(tag::INT);
            buf.put_i64(*i);
        }
        Value::Float(x) => {
            buf.put_u8(tag::FLOAT);
            buf.put_f64(*x);
        }
        Value::Str(s) => {
            buf.put_u8(tag::STR);
            put_len(buf, s.len());
            buf.put_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            buf.put_u8(tag::BYTES);
            put_len(buf, b.len());
            buf.put_slice(b);
        }
        Value::ContextRef(c) => {
            buf.put_u8(tag::CONTEXT_REF);
            buf.put_u64(c.raw());
        }
        Value::List(items) => {
            buf.put_u8(tag::LIST);
            put_len(buf, items.len());
            for item in items {
                encode_one(item, buf);
            }
        }
        Value::Map(map) => {
            buf.put_u8(tag::MAP);
            put_len(buf, map.len());
            for (k, v) in map {
                put_len(buf, k.len());
                buf.put_slice(k.as_bytes());
                encode_one(v, buf);
            }
        }
    }
}

fn decode_one(buf: &mut &[u8]) -> Result<Value> {
    if !buf.has_remaining() {
        return Err(AeonError::Codec("unexpected end of buffer".into()));
    }
    let tag = buf.get_u8();
    let value = match tag {
        tag::NULL => Value::Null,
        tag::BOOL_FALSE => Value::Bool(false),
        tag::BOOL_TRUE => Value::Bool(true),
        tag::INT => {
            ensure(buf, 8)?;
            Value::Int(buf.get_i64())
        }
        tag::FLOAT => {
            ensure(buf, 8)?;
            Value::Float(buf.get_f64())
        }
        tag::STR => {
            let len = get_len(buf)?;
            ensure(buf, len)?;
            let raw = buf[..len].to_vec();
            buf.advance(len);
            Value::Str(String::from_utf8(raw).map_err(|e| AeonError::Codec(e.to_string()))?)
        }
        tag::BYTES => {
            let len = get_len(buf)?;
            ensure(buf, len)?;
            let raw = buf[..len].to_vec();
            buf.advance(len);
            Value::Bytes(raw)
        }
        tag::CONTEXT_REF => {
            ensure(buf, 8)?;
            Value::ContextRef(ContextId::new(buf.get_u64()))
        }
        tag::LIST => {
            let len = get_len(buf)?;
            let mut items = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                items.push(decode_one(buf)?);
            }
            Value::List(items)
        }
        tag::MAP => {
            let len = get_len(buf)?;
            let mut map = BTreeMap::new();
            for _ in 0..len {
                let klen = get_len(buf)?;
                ensure(buf, klen)?;
                let kraw = buf[..klen].to_vec();
                buf.advance(klen);
                let key = String::from_utf8(kraw).map_err(|e| AeonError::Codec(e.to_string()))?;
                let v = decode_one(buf)?;
                map.insert(key, v);
            }
            Value::Map(map)
        }
        other => return Err(AeonError::Codec(format!("unknown tag {other}"))),
    };
    Ok(value)
}

fn put_len(buf: &mut Vec<u8>, len: usize) {
    buf.put_u32(len as u32);
}

fn get_len(buf: &mut &[u8]) -> Result<usize> {
    ensure(buf, 4)?;
    Ok(buf.get_u32() as usize)
}

fn ensure(buf: &&[u8], needed: usize) -> Result<()> {
    if buf.remaining() < needed {
        Err(AeonError::Codec(format!(
            "need {needed} bytes, only {} remaining",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
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
        roundtrip(&Value::Str("hello world".into()));
        roundtrip(&Value::Bytes(vec![0, 1, 2, 255]));
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
                Value::List(vec![
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
        roundtrip(&Value::List(Vec::new()));
        roundtrip(&Value::Map(BTreeMap::new()));
        roundtrip(&Value::Str(String::new()));
        roundtrip(&Value::Bytes(Vec::new()));
        roundtrip(&Value::map([("empty", Value::List(Vec::new()))]));
    }

    #[test]
    fn non_utf8_byte_payloads_round_trip() {
        // Invalid UTF-8 sequences must survive as Bytes (and must NOT be
        // decodable as Str).
        let payload = vec![0xff, 0xfe, 0x80, 0xc0, 0x00, 0xf5];
        assert!(String::from_utf8(payload.clone()).is_err());
        roundtrip(&Value::Bytes(payload.clone()));

        // A Str frame whose body is not UTF-8 is rejected, not mangled.
        let mut forged = encode(&Value::Bytes(payload)).to_vec();
        forged[1] = tag::STR;
        assert!(matches!(decode(&forged), Err(AeonError::Codec(_))));
    }

    #[test]
    fn deeply_nested_values_round_trip() {
        let mut v = Value::Int(0);
        for depth in 0..256 {
            v = if depth % 2 == 0 {
                Value::List(vec![v])
            } else {
                Value::map([("d", v)])
            };
        }
        roundtrip(&v);
    }

    #[test]
    fn encoded_len_matches_encode_for_edge_cases() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Str("ünïcode".into()),
            Value::Bytes(vec![0xff; 17]),
            Value::ContextRef(ContextId::new(0)),
            Value::List(Vec::new()),
            Value::Map(BTreeMap::new()),
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
            "[a-z]{0,16}".prop_map(Value::Str),
            proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
            any::<u64>().prop_map(|r| Value::ContextRef(ContextId::new(r))),
        ];
        leaf.prop_recursive(3, 64, 8, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..8).prop_map(Value::List),
                proptest::collection::btree_map("[a-z]{1,8}", inner, 0..8).prop_map(Value::Map),
            ]
        })
    }

    proptest! {
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
    }
}
