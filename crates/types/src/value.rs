//! Dynamic values used for method arguments, return values, and context
//! snapshots.
//!
//! The paper extends C++ with a `contextclass` keyword and compiles method
//! calls to typed RPCs.  As a library we instead dispatch methods
//! dynamically: arguments and results are [`Value`]s.  The representation is
//! deliberately small but expressive enough for the two paper applications
//! (game, TPC-C) and for serialising context state during migration and
//! checkpointing.

use crate::error::{AeonError, Result};
use crate::ids::ContextId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A dynamically-typed value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum Value {
    /// Absent / unit value.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Reference to another context (how `contextclass`-typed fields are
    /// expressed at runtime).
    ContextRef(ContextId),
    /// Ordered list of values.
    List(Vec<Value>),
    /// String-keyed map of values (used for struct-like state snapshots).
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Returns the value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the value as an integer, if it is one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the value as a float (integers are widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as a context reference, if it is one.
    pub fn as_context(&self) -> Option<ContextId> {
        match self {
            Value::ContextRef(c) => Some(*c),
            _ => None,
        }
    }

    /// Returns the value as a list, if it is one.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the value as a map, if it is one.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Returns `true` if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Collects every [`ContextId`] referenced (transitively) by this value.
    ///
    /// The runtime uses this to derive the directly-owned relation from a
    /// context's state: per §3 of the paper, a context `C` is directly owned
    /// by `C'` when any field of `C'` references `C`.
    pub fn referenced_contexts(&self) -> Vec<ContextId> {
        let mut out = Vec::new();
        self.collect_refs(&mut out);
        out
    }

    fn collect_refs(&self, out: &mut Vec<ContextId>) {
        match self {
            Value::ContextRef(c) => out.push(*c),
            Value::List(items) => items.iter().for_each(|v| v.collect_refs(out)),
            Value::Map(map) => map.values().for_each(|v| v.collect_refs(out)),
            _ => {}
        }
    }

    /// Builds a map value from `(key, value)` pairs.
    pub fn map<I, K>(pairs: I) -> Value
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        Value::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::ContextRef(c) => write!(f, "&{c}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}
impl From<ContextId> for Value {
    fn from(v: ContextId) -> Self {
        Value::ContextRef(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}
impl From<()> for Value {
    fn from(_: ()) -> Self {
        Value::Null
    }
}

/// Positional arguments of a method call or event.
///
/// Most events and calls pass at most one value, so the list is stored by
/// how many it holds:
///
/// * no value or one value costs no heap block — `args![]`, `args![x]`,
///   cloning or decoding such a list allocates nothing for the list itself;
/// * two or more values cost one block of exactly their size.
///
/// An `Args` is 32 bytes, the size of one [`Value`] and 8 more than a
/// `Vec<Value>`, so a holder of many multi-value lists pays 8 B per list.
/// Equality and `{:?}` depend only on the values, never on which
/// constructor built the list.
#[derive(Clone, Serialize, Deserialize, Default)]
pub struct Args(Repr);

/// The three sizes of an argument list.  `Many` always holds at least two
/// values, so each list has exactly one representation.
#[derive(Clone, Default)]
enum Repr {
    #[default]
    None,
    One(Value),
    Many(Box<[Value]>),
}

const _: () = assert!(std::mem::size_of::<Args>() == std::mem::size_of::<Value>());

impl Args {
    /// Creates an argument list from values.
    pub fn new(mut values: Vec<Value>) -> Self {
        Args(match values.len() {
            0 => Repr::None,
            1 => Repr::One(values.pop().expect("length is one")),
            _ => Repr::Many(values.into_boxed_slice()),
        })
    }

    /// The empty argument list.
    pub fn empty() -> Self {
        Args(Repr::None)
    }

    /// The arguments as a slice.
    pub fn as_slice(&self) -> &[Value] {
        match &self.0 {
            Repr::None => &[],
            Repr::One(value) => std::slice::from_ref(value),
            Repr::Many(values) => values,
        }
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` when there are no arguments.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Returns the argument at `idx`, if present.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.as_slice().get(idx)
    }

    /// Returns the argument at `idx` as an integer.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::BadArguments`] if the argument is missing or has
    /// the wrong type.
    pub fn get_i64(&self, idx: usize) -> Result<i64> {
        self.get(idx)
            .and_then(Value::as_i64)
            .ok_or_else(|| bad_arg(idx, "int"))
    }

    /// Returns the argument at `idx` as a float.
    pub fn get_f64(&self, idx: usize) -> Result<f64> {
        self.get(idx)
            .and_then(Value::as_f64)
            .ok_or_else(|| bad_arg(idx, "float"))
    }

    /// Returns the argument at `idx` as a boolean.
    pub fn get_bool(&self, idx: usize) -> Result<bool> {
        self.get(idx)
            .and_then(Value::as_bool)
            .ok_or_else(|| bad_arg(idx, "bool"))
    }

    /// Returns the argument at `idx` as a string slice.
    pub fn get_str(&self, idx: usize) -> Result<&str> {
        self.get(idx)
            .and_then(Value::as_str)
            .ok_or_else(|| bad_arg(idx, "string"))
    }

    /// Returns the argument at `idx` as a context reference.
    pub fn get_context(&self, idx: usize) -> Result<ContextId> {
        self.get(idx)
            .and_then(Value::as_context)
            .ok_or_else(|| bad_arg(idx, "context reference"))
    }

    /// Iterates over the arguments.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.as_slice().iter()
    }

    /// Consumes the argument list and returns the underlying values.
    pub fn into_inner(self) -> Vec<Value> {
        match self.0 {
            Repr::None => Vec::new(),
            Repr::One(value) => vec![value],
            Repr::Many(values) => values.into_vec(),
        }
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Args").field(&self.as_slice()).finish()
    }
}

impl From<Vec<Value>> for Args {
    fn from(values: Vec<Value>) -> Self {
        Args::new(values)
    }
}

/// What [`args!`](crate::args) builds from: an array, so that no `Vec` is
/// made first.
impl<const N: usize> From<[Value; N]> for Args {
    fn from(values: [Value; N]) -> Self {
        // One allocation and one copy: collecting the array instead made
        // `args![a, b, c]` about five times slower.
        if N >= 2 {
            return Args(Repr::Many(Box::new(values)));
        }
        Args(values.into_iter().next().map_or(Repr::None, Repr::One))
    }
}

impl FromIterator<Value> for Args {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        let mut iter = iter.into_iter();
        Args(match (iter.next(), iter.next()) {
            (None, _) => Repr::None,
            (Some(only), None) => Repr::One(only),
            (Some(first), Some(second)) => {
                let mut values = Vec::with_capacity(2 + iter.size_hint().0);
                values.extend([first, second]);
                values.extend(iter);
                Repr::Many(values.into_boxed_slice())
            }
        })
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

fn bad_arg(idx: usize, expected: &str) -> AeonError {
    AeonError::BadArguments {
        method: String::new(),
        reason: format!("argument {idx} missing or not a {expected}"),
    }
}

/// Builds an [`Args`] list from a comma-separated list of expressions, each
/// convertible into a [`Value`].  The values are gathered in an array, so
/// `args![]` and `args![x]` allocate nothing for the list.
///
/// ```
/// use aeon_types::{args, Value};
/// let a = args![1i64, "gold", true];
/// assert_eq!(a.len(), 3);
/// assert_eq!(a.get_str(1).unwrap(), "gold");
/// ```
#[macro_export]
macro_rules! args {
    () => { $crate::Args::empty() };
    ($($e:expr),+ $(,)?) => {
        $crate::Args::from([$($crate::Value::from($e)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_produce_expected_variants() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(5i32), Value::Int(5));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(
            Value::from(ContextId::new(3)),
            Value::ContextRef(ContextId::new(3))
        );
        assert_eq!(Value::from(()), Value::Null);
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        assert_eq!(Value::Int(1).as_bool(), None);
        assert_eq!(Value::Bool(true).as_i64(), None);
        assert_eq!(Value::Null.as_str(), None);
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
    }

    #[test]
    fn referenced_contexts_walks_nested_structures() {
        let v = Value::map([
            (
                "items",
                Value::from(vec![ContextId::new(1), ContextId::new(2)]),
            ),
            ("owner", Value::from(ContextId::new(3))),
            ("name", Value::from("castle")),
        ]);
        let mut refs = v.referenced_contexts();
        refs.sort();
        assert_eq!(
            refs,
            vec![ContextId::new(1), ContextId::new(2), ContextId::new(3)]
        );
    }

    #[test]
    fn args_typed_accessors() {
        let a = args![42i64, "sword", true, ContextId::new(9), 1.5f64];
        assert_eq!(a.get_i64(0).unwrap(), 42);
        assert_eq!(a.get_str(1).unwrap(), "sword");
        assert!(a.get_bool(2).unwrap());
        assert_eq!(a.get_context(3).unwrap(), ContextId::new(9));
        assert_eq!(a.get_f64(4).unwrap(), 1.5);
        assert!(a.get_i64(5).is_err());
        assert!(a.get_str(0).is_err());
    }

    #[test]
    fn empty_args_macro() {
        let a = args![];
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn map_lookup() {
        let v = Value::map([("gold", Value::from(10i64))]);
        assert_eq!(v.get("gold").and_then(Value::as_i64), Some(10));
        assert!(v.get("silver").is_none());
    }

    #[test]
    fn display_is_never_empty() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::Str(String::new()),
            Value::List(vec![]),
            Value::Map(BTreeMap::new()),
            Value::Bytes(vec![]),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }
}
