//! Offline stand-in for `serde` with a drastically simplified data model.
//!
//! The build environment has no network access, so the real `serde` crate
//! cannot be fetched. This shim keeps the public surface the workspace
//! actually uses — `Serialize`, `Deserialize`, and the derive macros — but
//! maps everything through a single JSON [`Value`] tree instead of the
//! visitor-based serde data model. The companion `serde_json` shim re-exports
//! [`Value`], [`Number`], and [`Map`] from here.

mod key;
pub mod map;
#[doc(hidden)]
pub mod value;

pub use key::FieldName;
pub use map::Map;
pub use value::{JsonIndex, Number, Str, Value};

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Build an error from a message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }

    /// Attach field context to an existing error.
    pub fn in_field(err: Error, field: &str) -> Self {
        Error {
            msg: format!("{field}: {}", err.msg),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can be converted into a JSON [`Value`].
pub trait Serialize {
    /// Convert `self` into a JSON value tree.
    fn to_json(&self) -> Value;
}

/// Types that can be reconstructed from a JSON [`Value`].
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a JSON value tree.
    fn from_json(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Serialize impls for primitives and std containers
// ---------------------------------------------------------------------------

impl Serialize for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_json(&self) -> Value {
        Value::String(self.as_str().into())
    }
}

impl Serialize for str {
    fn to_json(&self) -> Value {
        Value::String(self.into())
    }
}

macro_rules! ser_int {
    ($($t:ty)*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Value {
                Value::Number(Number::from(*self as i64))
            }
        }
    )*}
}
ser_int!(i8 i16 i32 i64 isize);

macro_rules! ser_uint {
    ($($t:ty)*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Value {
                Value::Number(Number::from(*self as u64))
            }
        }
    )*}
}
ser_uint!(u8 u16 u32 u64 usize);

impl Serialize for f64 {
    fn to_json(&self) -> Value {
        Number::from_f64(*self)
            .map(Value::Number)
            .unwrap_or(Value::Null)
    }
}

impl Serialize for f32 {
    fn to_json(&self) -> Value {
        (*self as f64).to_json()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(t) => t.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for HashSet<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

/// Mirrors serde's `rc` feature: a shared handle serializes as its
/// pointee (needed for zero-copy `Arc<Value>` documents in `json!`).
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: Serialize + ?Sized> Serialize for std::rc::Rc<T> {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

/// Map keys must serialize to JSON strings.
fn key_to_string(v: Value) -> String {
    match v {
        Value::String(s) => s.into(),
        Value::Number(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => other.to_string(),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_json(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(key_to_string(k.to_json()), v.to_json());
        }
        Value::Object(m)
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn to_json(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(key_to_string(k.to_json()), v.to_json());
        }
        Value::Object(m)
    }
}

impl Serialize for Map<String, Value> {
    fn to_json(&self) -> Value {
        Value::Object(self.clone())
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_json(&self) -> Value {
                Value::Array(vec![$(self.$n.to_json()),+])
            }
        }
    )+}
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

// ---------------------------------------------------------------------------
// Deserialize impls
// ---------------------------------------------------------------------------

impl Deserialize for Value {
    fn from_json(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Deserialize for bool {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error::custom(format!("expected bool, got {v}")))
    }
}

impl Deserialize for String {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::custom(format!("expected string, got {v}")))
    }
}

macro_rules! de_int {
    ($($t:ty)*) => {$(
        impl Deserialize for $t {
            fn from_json(v: &Value) -> Result<Self, Error> {
                let n = v.as_i64().ok_or_else(|| Error::custom(format!("expected integer, got {v}")))?;
                <$t>::try_from(n).map_err(|_| Error::custom(format!("integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*}
}
de_int!(i8 i16 i32 i64 isize);

macro_rules! de_uint {
    ($($t:ty)*) => {$(
        impl Deserialize for $t {
            fn from_json(v: &Value) -> Result<Self, Error> {
                let n = v.as_u64().ok_or_else(|| Error::custom(format!("expected unsigned integer, got {v}")))?;
                <$t>::try_from(n).map_err(|_| Error::custom(format!("integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*}
}
de_uint!(u8 u16 u32 u64 usize);

impl Deserialize for f64 {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::custom(format!("expected number, got {v}")))
    }
}

impl Deserialize for f32 {
    fn from_json(v: &Value) -> Result<Self, Error> {
        f64::from_json(v).map(|f| f as f32)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::custom(format!("expected array, got {v}")))?;
        arr.iter().map(T::from_json).collect()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::custom(format!("expected array, got {v}")))?;
        if arr.len() != N {
            return Err(Error::custom(format!(
                "expected array of length {N}, got {}",
                arr.len()
            )));
        }
        let mut parsed = arr
            .iter()
            .map(T::from_json)
            .collect::<Result<Vec<T>, Error>>()?;
        // Drain into a fixed array without requiring T: Default/Copy.
        let mut out: Vec<T> = Vec::with_capacity(N);
        out.append(&mut parsed);
        out.try_into()
            .map_err(|_| Error::custom("array length mismatch"))
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::custom(format!("expected array, got {v}")))?;
        arr.iter().map(T::from_json).collect()
    }
}

impl<T: Deserialize + std::hash::Hash + Eq> Deserialize for HashSet<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::custom(format!("expected array, got {v}")))?;
        arr.iter().map(T::from_json).collect()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        T::from_json(v).map(Box::new)
    }
}

fn key_from_str<K: Deserialize>(k: &str) -> Result<K, Error> {
    // Try the string form first, falling back to a numeric re-parse so
    // integer-keyed maps round-trip through JSON object keys.
    let as_string = Value::from(k);
    if let Ok(key) = K::from_json(&as_string) {
        return Ok(key);
    }
    if let Ok(i) = k.parse::<i64>() {
        if let Ok(key) = K::from_json(&Value::Number(Number::from(i))) {
            return Ok(key);
        }
    }
    Err(Error::custom(format!(
        "cannot deserialize map key from {k:?}"
    )))
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object, got {v}")))?;
        let mut out = BTreeMap::new();
        for (k, val) in obj.iter() {
            out.insert(key_from_str(k)?, V::from_json(val)?);
        }
        Ok(out)
    }
}

impl<K: Deserialize + std::hash::Hash + Eq, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object, got {v}")))?;
        let mut out = HashMap::new();
        for (k, val) in obj.iter() {
            out.insert(key_from_str(k)?, V::from_json(val)?);
        }
        Ok(out)
    }
}

impl Deserialize for Map<String, Value> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .cloned()
            .ok_or_else(|| Error::custom(format!("expected object, got {v}")))
    }
}

macro_rules! de_tuple {
    ($(($len:expr; $($n:tt $t:ident),+))+) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_json(v: &Value) -> Result<Self, Error> {
                let arr = v.as_array().ok_or_else(|| Error::custom(format!("expected array, got {v}")))?;
                if arr.len() != $len {
                    return Err(Error::custom(format!("expected array of length {}, got {}", $len, arr.len())));
                }
                Ok(($($t::from_json(&arr[$n])?,)+))
            }
        }
    )+}
}
de_tuple! {
    (1; 0 A)
    (2; 0 A, 1 B)
    (3; 0 A, 1 B, 2 C)
    (4; 0 A, 1 B, 2 C, 3 D)
}
