//! In-tree shim for the `serde` crate.
//!
//! The build environment has no network access, so this crate provides a
//! compact, value-tree based re-implementation of the serde API surface
//! this workspace uses:
//!
//! * [`Serialize`] / [`Deserialize`] traits, centred on a JSON-shaped
//!   [`Value`] tree rather than serde's streaming data model;
//! * `#[derive(Serialize, Deserialize)]` (from the sibling
//!   `serde_derive` shim) for structs and enums, honouring
//!   `#[serde(with = "module")]` field attributes;
//! * [`Serializer`] / [`Deserializer`] traits so hand-written `with`
//!   modules keep serde's calling convention;
//! * implementations for the std types the workspace serializes
//!   (integers, floats, `String`, tuples, `Vec`, `Option`, `BTreeMap`,
//!   `BTreeSet`, `RangeInclusive`).
//!
//! Externally tagged enums, transparent newtypes, and missing-field
//! `Option` defaults all follow upstream serde's conventions, so the
//! JSON produced by the sibling `serde_json` shim looks exactly like
//! what the real stack would emit for these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON number: unsigned, signed, or floating point.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// A non-negative integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// A floating-point number.
    F(f64),
}

impl Number {
    /// The number as `f64` (always possible).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        }
    }

    /// The number as `u64`, when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(u) => Some(u),
            Number::I(i) => u64::try_from(i).ok(),
            Number::F(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            Number::F(_) => None,
        }
    }

    /// The number as `i64`, when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(u) => i64::try_from(u).ok(),
            Number::I(i) => Some(i),
            Number::F(f) if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 => {
                Some(f as i64)
            }
            Number::F(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Number::U(a), Number::U(b)) => a == b,
            (Number::I(a), Number::I(b)) => a == b,
            (Number::F(a), Number::F(b)) => a == b,
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

/// A JSON-shaped value tree — the pivot format of this shim.
///
/// Objects preserve insertion order (serde_json's default map also
/// iterates in insertion order for small documents; nothing in the
/// workspace depends on key ordering).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as `u64` when it is an exactly-representable number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `&str` when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice when it is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Looks up a key of an object, inserting `Null` when absent
    /// (serde_json's `IndexMut` auto-vivification).
    pub fn entry_mut(&mut self, key: &str) -> &mut Value {
        let Value::Object(pairs) = self else {
            panic!("cannot index into {} with a string key", self.kind());
        };
        if let Some(i) = pairs.iter().position(|(k, _)| k == key) {
            return &mut pairs[i].1;
        }
        pairs.push((key.to_owned(), Value::Null));
        &mut pairs.last_mut().expect("just pushed").1
    }

    /// A short description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// `value["key"]` returns `Null` for missing keys and non-objects,
/// matching serde_json.
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value["key"] = x` overwrites or inserts the key; panics when the
/// value is not an object, matching serde_json.
impl std::ops::IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        self.entry_mut(key)
    }
}

/// The error type shared by serialization and deserialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Builds an error from any displayable message.
    pub fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Data formats that [`Serialize::serialize`] can drive.
///
/// The shim's data model is the [`Value`] tree, so a serializer is
/// simply a sink for one value.
pub trait Serializer: Sized {
    /// What the serializer produces on success.
    type Ok;
    /// The serializer's error type.
    type Error;

    /// Consumes one value tree.
    fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;
}

/// Data formats that [`Deserialize::deserialize`] can read from.
pub trait Deserializer: Sized {
    /// The deserializer's error type.
    type Error: DeError;

    /// Produces the value tree to deserialize from.
    fn into_value(self) -> Result<Value, Self::Error>;
}

/// Deserializer error construction, mirroring `serde::de::Error`.
pub trait DeError: Sized {
    /// Builds an error from any displayable message.
    fn custom<T: fmt::Display>(msg: T) -> Self;
}

impl DeError for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::custom(msg)
    }
}

/// Types that can be serialized into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` to a value tree.
    fn to_value(&self) -> Value;

    /// Drives any [`Serializer`] with the value tree of `self`.
    ///
    /// # Errors
    ///
    /// Propagates the serializer's error.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.to_value())
    }
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first mismatch between the value
    /// and `Self`'s shape.
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// The replacement value when a struct field of this type is absent,
    /// mirroring serde's implicit `Option` default. `None` means the
    /// field is required.
    fn missing_field() -> Option<Self> {
        None
    }

    /// Reads `Self` out of any [`Deserializer`].
    ///
    /// # Errors
    ///
    /// Propagates the deserializer's error or the shape mismatch.
    fn deserialize<D: Deserializer>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.into_value()?;
        Self::from_value(&value).map_err(D::Error::custom)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Number(Number::U(*self as u64)) }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value.as_u64()
                    .ok_or_else(|| Error::custom(format!(
                        "expected {}, found {}", stringify!($t), value.kind())))?;
                <$t>::try_from(n).map_err(Error::custom)
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if *self >= 0 {
                    Value::Number(Number::U(*self as u64))
                } else {
                    Value::Number(Number::I(*self as i64))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = match value {
                    Value::Number(n) => n.as_i64(),
                    _ => None,
                }.ok_or_else(|| Error::custom(format!(
                    "expected {}, found {}", stringify!($t), value.kind())))?;
                <$t>::try_from(n).map_err(Error::custom)
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Number(Number::F(*self as f64)) }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                value.as_f64().map(|f| f as $t).ok_or_else(|| Error::custom(format!(
                    "expected {}, found {}", stringify!($t), value.kind())))
            }
        }
    )*};
}
impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!(
                "expected bool, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error::custom(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn missing_field() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::custom(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::custom(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }
}

/// Map keys must serialize to strings (JSON objects demand it); this
/// converts through [`Value`] in both directions.
fn key_to_string<K: Serialize>(key: &K) -> String {
    match key.to_value() {
        Value::String(s) => s,
        Value::Number(n) => match n {
            Number::U(u) => u.to_string(),
            Number::I(i) => i.to_string(),
            Number::F(f) => format!("{f:?}"),
        },
        other => panic!("map key serialized to non-scalar {}", other.kind()),
    }
}

fn key_from_string<K: Deserialize>(key: &str) -> Result<K, Error> {
    // Try the string itself first (string and string-like enum keys),
    // then numeric re-interpretations for integer keys.
    let as_string = Value::String(key.to_owned());
    if let Ok(k) = K::from_value(&as_string) {
        return Ok(k);
    }
    if let Ok(u) = key.parse::<u64>() {
        if let Ok(k) = K::from_value(&Value::Number(Number::U(u))) {
            return Ok(k);
        }
    }
    if let Ok(i) = key.parse::<i64>() {
        if let Ok(k) = K::from_value(&Value::Number(Number::I(i))) {
            return Ok(k);
        }
    }
    Err(Error::custom(format!("unusable map key {key:?}")))
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (key_to_string(k), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((key_from_string::<K>(k)?, V::from_value(v)?)))
                .collect(),
            other => Err(Error::custom(format!(
                "expected object, found {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                let items = value.as_array().ok_or_else(|| Error::custom(format!(
                    "expected {LEN}-tuple array, found {}", value.kind())))?;
                if items.len() != LEN {
                    return Err(Error::custom(format!(
                        "expected {LEN}-tuple, found array of {}", items.len())));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}
impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

impl<T: Serialize> Serialize for std::ops::RangeInclusive<T> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("start".to_owned(), self.start().to_value()),
            ("end".to_owned(), self.end().to_value()),
        ])
    }
}

impl<T: Deserialize> Deserialize for std::ops::RangeInclusive<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let start = value
            .get("start")
            .ok_or_else(|| Error::custom("missing field `start`"))?;
        let end = value
            .get("end")
            .ok_or_else(|| Error::custom("missing field `end`"))?;
        Ok(T::from_value(start)?..=T::from_value(end)?)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(std::sync::Arc::new)
    }
}

/// Support plumbing for the derive macros. Not part of the public API.
#[doc(hidden)]
pub mod __private {
    use super::{DeError, Deserialize, Deserializer, Error, Serializer, Value};

    /// A serializer that just hands back the value tree.
    pub struct ValueSerializer;

    impl Serializer for ValueSerializer {
        type Ok = Value;
        type Error = Error;

        fn serialize_value(self, value: Value) -> Result<Value, Error> {
            Ok(value)
        }
    }

    /// A deserializer reading from an owned value tree.
    pub struct ValueDeserializer(pub Value);

    impl Deserializer for ValueDeserializer {
        type Error = Error;

        fn into_value(self) -> Result<Value, Error> {
            Ok(self.0)
        }
    }

    /// Reads and deserializes one named struct field, applying the
    /// missing-field default (`Option` fields become `None`).
    pub fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, Error> {
        match value.get(name) {
            Some(v) => T::from_value(v).map_err(|e| Error::custom(format!("field `{name}`: {e}"))),
            None => {
                T::missing_field().ok_or_else(|| Error::custom(format!("missing field `{name}`")))
            }
        }
    }

    /// Looks up one field of a `#[serde(default)]`-annotated struct
    /// member: a missing key yields `T::default()` instead of an error,
    /// so old artifacts stay readable after a schema grows a counter.
    pub fn field_default<T: Deserialize + Default>(value: &Value, name: &str) -> Result<T, Error> {
        match value.get(name) {
            Some(v) => T::from_value(v).map_err(|e| Error::custom(format!("field `{name}`: {e}"))),
            None => Ok(T::default()),
        }
    }

    /// Requires `value` to be an object, for derived struct impls.
    pub fn expect_object<'v>(value: &'v Value, ty: &str) -> Result<&'v Value, Error> {
        match value {
            Value::Object(_) => Ok(value),
            other => Err(Error::custom(format!(
                "expected object for {ty}, found {}",
                other.kind()
            ))),
        }
    }

    /// Requires `value` to be an array of exactly `len`, for derived
    /// tuple impls.
    pub fn expect_tuple<'v>(value: &'v Value, len: usize, ty: &str) -> Result<&'v [Value], Error> {
        match value {
            Value::Array(items) if items.len() == len => Ok(items),
            Value::Array(items) => Err(Error::custom(format!(
                "expected {len} elements for {ty}, found {}",
                items.len()
            ))),
            other => Err(Error::custom(format!(
                "expected array for {ty}, found {}",
                other.kind()
            ))),
        }
    }

    /// Wraps a variant payload as an externally tagged enum value.
    pub fn tagged(tag: &str, payload: Value) -> Value {
        Value::Object(vec![(tag.to_owned(), payload)])
    }

    /// Runs a `#[serde(with = "module")]` serialize function, capturing
    /// its value tree.
    pub fn with_serialize<F>(f: F) -> Value
    where
        F: FnOnce(ValueSerializer) -> Result<Value, Error>,
    {
        f(ValueSerializer).unwrap_or(Value::Null)
    }

    /// Runs a `#[serde(with = "module")]` deserialize function against
    /// one named field.
    pub fn with_deserialize<T, F>(value: &Value, name: &str, f: F) -> Result<T, Error>
    where
        F: FnOnce(ValueDeserializer) -> Result<T, Error>,
    {
        let field = value
            .get(name)
            .ok_or_else(|| Error::custom(format!("missing field `{name}`")))?;
        f(ValueDeserializer(field.clone()))
    }

    /// Error for an unknown enum variant tag.
    pub fn unknown_variant(ty: &str, tag: &str) -> Error {
        DeError::custom(format!("unknown variant `{tag}` for {ty}"))
    }

    /// Error for an enum value of the wrong shape.
    pub fn bad_enum_shape(ty: &str, value: &Value) -> Error {
        DeError::custom(format!(
            "expected externally tagged {ty}, found {}",
            value.kind()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        for v in [0u32, 7, u32::MAX] {
            assert_eq!(u32::from_value(&v.to_value()).unwrap(), v);
        }
        for v in [-3i64, 0, 9_000_000] {
            assert_eq!(i64::from_value(&v.to_value()).unwrap(), v);
        }
        for v in [0.0f64, -1.25, 1e300, f64::MIN_POSITIVE] {
            assert_eq!(
                f64::from_value(&v.to_value()).unwrap().to_bits(),
                v.to_bits()
            );
        }
        assert!(bool::from_value(&true.to_value()).unwrap());
        let s = "héllo".to_owned();
        assert_eq!(String::from_value(&s.to_value()).unwrap(), s);
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![(1u32, 2.5f64), (3, 4.5)];
        assert_eq!(Vec::<(u32, f64)>::from_value(&v.to_value()).unwrap(), v);

        let mut m = BTreeMap::new();
        m.insert("a".to_owned(), vec![1u64, 2]);
        assert_eq!(
            BTreeMap::<String, Vec<u64>>::from_value(&m.to_value()).unwrap(),
            m
        );

        let mut s = BTreeSet::new();
        s.insert((1usize, 2usize));
        assert_eq!(
            BTreeSet::<(usize, usize)>::from_value(&s.to_value()).unwrap(),
            s
        );

        let r = 3usize..=9;
        assert_eq!(
            std::ops::RangeInclusive::<usize>::from_value(&r.to_value()).unwrap(),
            r
        );

        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<u32>::from_value(&5u32.to_value()).unwrap(),
            Some(5)
        );
        assert_eq!(Option::<u32>::missing_field(), Some(None));
        assert_eq!(u32::missing_field(), None);
    }

    #[test]
    fn integer_keyed_maps_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert(4u32, "x".to_owned());
        let v = m.to_value();
        assert_eq!(v.get("4").and_then(Value::as_str), Some("x"));
        assert_eq!(BTreeMap::<u32, String>::from_value(&v).unwrap(), m);
    }

    #[test]
    fn shape_errors_are_described() {
        let err = u32::from_value(&Value::Bool(true)).unwrap_err();
        assert!(err.to_string().contains("expected u32"));
        let err = Vec::<u32>::from_value(&Value::Null).unwrap_err();
        assert!(err.to_string().contains("expected array"));
    }
}
