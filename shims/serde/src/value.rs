//! JSON value tree shared by the `serde` and `serde_json` shims.
//!
//! Semantics follow `serde_json` closely where the workspace depends on them:
//! integers and doubles are distinct (`1 != 1.0` structurally), object key
//! order is insertion order (`preserve_order`), and `Display` renders compact
//! JSON with `{:?}`-style float formatting so `1.0` round-trips as a double.
//!
//! Two departures from `serde_json`'s representation, both for resident
//! documents: an object's field names are shared per process (`Map`'s
//! keys, see `key.rs`), and `Value::String` holds a [`Str`], not a
//! `String` — text of up to [`Str::INLINE`] bytes lives inside the value,
//! so the short tokens a materials document is made of (`_id`, formulas,
//! element symbols) cost no allocation. `as_str()` reads the same.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

use crate::map::Map;

/// A JSON number: unsigned integer, signed integer, or double.
#[derive(Debug, Clone, Copy)]
pub struct Number {
    repr: Repr,
}

#[derive(Debug, Clone, Copy)]
enum Repr {
    U(u64),
    I(i64),
    F(f64),
}

impl Number {
    /// Build a number from a finite float; `None` for NaN/infinite.
    pub fn from_f64(f: f64) -> Option<Number> {
        if f.is_finite() {
            Some(Number { repr: Repr::F(f) })
        } else {
            None
        }
    }

    /// The value as an `i64`, if it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self.repr {
            Repr::U(u) => i64::try_from(u).ok(),
            Repr::I(i) => Some(i),
            Repr::F(_) => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self.repr {
            Repr::U(u) => Some(u),
            Repr::I(i) => u64::try_from(i).ok(),
            Repr::F(_) => None,
        }
    }

    /// The value as a double (lossy for very large integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self.repr {
            Repr::U(u) => Some(u as f64),
            Repr::I(i) => Some(i as f64),
            Repr::F(f) => Some(f),
        }
    }

    /// True when the number is an integer representable as `i64`.
    pub fn is_i64(&self) -> bool {
        self.as_i64().is_some()
    }

    /// True when the number is a non-negative integer.
    pub fn is_u64(&self) -> bool {
        self.as_u64().is_some()
    }

    /// True when the number is stored as a double.
    pub fn is_f64(&self) -> bool {
        matches!(self.repr, Repr::F(_))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.repr, other.repr) {
            (Repr::F(a), Repr::F(b)) => a == b,
            (Repr::F(_), _) | (_, Repr::F(_)) => false,
            // Integer representations compare by numeric value.
            (a, b) => int_val(a) == int_val(b),
        }
    }
}

fn int_val(r: Repr) -> i128 {
    match r {
        Repr::U(u) => u as i128,
        Repr::I(i) => i as i128,
        Repr::F(_) => unreachable!("float handled by caller"),
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.repr {
            Repr::U(u) => write!(f, "{u}"),
            Repr::I(i) => write!(f, "{i}"),
            // `{:?}` keeps a trailing `.0` on whole floats, preserving the
            // int/double distinction across a serialization round-trip.
            Repr::F(v) => write!(f, "{v:?}"),
        }
    }
}

macro_rules! number_from_signed {
    ($($t:ty)*) => {$(
        impl From<$t> for Number {
            fn from(i: $t) -> Self {
                let i = i as i64;
                if i >= 0 {
                    Number { repr: Repr::U(i as u64) }
                } else {
                    Number { repr: Repr::I(i) }
                }
            }
        }
    )*}
}
number_from_signed!(i8 i16 i32 i64 isize);

macro_rules! number_from_unsigned {
    ($($t:ty)*) => {$(
        impl From<$t> for Number {
            fn from(u: $t) -> Self {
                Number { repr: Repr::U(u as u64) }
            }
        }
    )*}
}
number_from_unsigned!(u8 u16 u32 u64 usize);

/// A JSON string's text: up to [`Str::INLINE`] bytes inside the value,
/// longer text in one `Box<str>` of its exact length. Equality, order
/// and hashing read the bytes (UTF-8's byte order is `str`'s order), and
/// it derefs to `&str`.
#[derive(Clone, PartialEq, Eq)]
pub struct Str(Text);

/// Which form a text takes is a function of its length, and unused
/// inline bytes are zero, so the derived equality is the text's.
#[derive(Clone, PartialEq, Eq)]
enum Text {
    /// `bytes[..len]` are the bytes of a `&str`, the rest zeros.
    Inline { len: u8, bytes: [u8; Str::INLINE] },
    /// More than `INLINE` bytes.
    Heap(Box<str>),
}

impl Str {
    /// The longest text kept inline: a tag byte, a length byte and 22
    /// bytes make 24, a `String`'s size, so a `Value` stays 32 bytes.
    pub const INLINE: usize = 22;

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // Checked, but it cannot fail: the bytes were copied from a
            // `&str` whole, and nothing writes them afterwards.
            Text::Inline { .. } => std::str::from_utf8(self.as_bytes()).unwrap_or_default(),
            Text::Heap(s) => s,
        }
    }

    /// The text's bytes, without a UTF-8 check.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Text::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Text::Heap(s) => s.as_bytes(),
        }
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Self {
        let mut bytes = [0; Str::INLINE];
        match bytes.get_mut(..s.len()) {
            Some(head) => {
                head.copy_from_slice(s.as_bytes());
                Str(Text::Inline {
                    len: s.len() as u8,
                    bytes,
                })
            }
            None => Str(Text::Heap(s.into())),
        }
    }
}

impl From<String> for Str {
    /// Short text is copied in and `s` freed; long text keeps its
    /// buffer, trimmed to its length.
    fn from(s: String) -> Self {
        if s.len() <= Str::INLINE {
            Str::from(s.as_str())
        } else {
            Str(Text::Heap(s.into_boxed_str()))
        }
    }
}

impl From<Str> for String {
    fn from(s: Str) -> Self {
        match s.0 {
            Text::Heap(s) => s.into_string(),
            Text::Inline { .. } => s.as_str().to_owned(),
        }
    }
}

impl Deref for Str {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Str {
    /// As `str` hashes.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(Str),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object (insertion-ordered).
    Object(Map<String, Value>),
}

impl Value {
    /// Borrow as an object map.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutably borrow as an object map.
    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Mutably borrow as an array.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean value, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer value, if this is an integer number fitting `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The unsigned value, if this is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The numeric value as a double, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// `Some(())` when this is `Null`.
    pub fn as_null(&self) -> Option<()> {
        match self {
            Value::Null => Some(()),
            _ => None,
        }
    }

    /// True when this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True when this is a boolean.
    pub fn is_boolean(&self) -> bool {
        matches!(self, Value::Bool(_))
    }

    /// True when this is a number.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    /// True when this is a string.
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// True when this is an array.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// True when this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// True when this is an integer number fitting `i64`.
    pub fn is_i64(&self) -> bool {
        self.as_i64().is_some()
    }

    /// True when this is a non-negative integer number.
    pub fn is_u64(&self) -> bool {
        self.as_u64().is_some()
    }

    /// True when this is a number stored as a double.
    pub fn is_f64(&self) -> bool {
        matches!(self, Value::Number(n) if n.is_f64())
    }

    /// Look up by key or array position; `None` on kind mismatch.
    pub fn get<I: JsonIndex>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    /// Mutable lookup by key or array position.
    pub fn get_mut<I: JsonIndex>(&mut self, index: I) -> Option<&mut Value> {
        index.index_into_mut(self)
    }

    /// Replace `self` with `Null`, returning the previous value.
    pub fn take(&mut self) -> Value {
        std::mem::take(self)
    }
}

/// Index into a [`Value`] by string key or array position.
pub trait JsonIndex {
    /// Shared lookup.
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
    /// Mutable lookup.
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value>;
    /// Mutable lookup that inserts missing entries (object keys only).
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value;
}

impl JsonIndex for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_array().and_then(|a| a.get(*self))
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_array_mut().and_then(|a| a.get_mut(*self))
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        match v.as_array_mut().and_then(|a| a.get_mut(*self)) {
            Some(slot) => slot,
            None => panic!("cannot index JSON value with {self}: out of bounds or not an array"),
        }
    }
}

impl JsonIndex for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_object().and_then(|m| m.get(self))
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_object_mut().and_then(|m| m.get_mut(self))
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        if v.is_null() {
            *v = Value::Object(Map::new());
        }
        match v {
            Value::Object(m) => m.entry(self.to_string()).or_insert(Value::Null),
            other => panic!("cannot index non-object JSON value with string {self:?}: {other}"),
        }
    }
}

impl JsonIndex for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        self.as_str().index_into_mut(v)
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        self.as_str().index_or_insert(v)
    }
}

impl<T: JsonIndex + ?Sized> JsonIndex for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        (**self).index_into_mut(v)
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        (**self).index_or_insert(v)
    }
}

impl<I: JsonIndex> std::ops::Index<I> for Value {
    type Output = Value;

    fn index(&self, index: I) -> &Value {
        static NULL: Value = Value::Null;
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl<I: JsonIndex> std::ops::IndexMut<I> for Value {
    fn index_mut(&mut self, index: I) -> &mut Value {
        index.index_or_insert(self)
    }
}

// --- From conversions -------------------------------------------------------

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s.into())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.into())
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Self {
        Value::String(s.as_str().into())
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Number::from_f64(f)
            .map(Value::Number)
            .unwrap_or(Value::Null)
    }
}

impl From<f32> for Value {
    fn from(f: f32) -> Self {
        Value::from(f as f64)
    }
}

impl From<Number> for Value {
    fn from(n: Number) -> Self {
        Value::Number(n)
    }
}

macro_rules! value_from_int {
    ($($t:ty)*) => {$(
        impl From<$t> for Value {
            fn from(i: $t) -> Self {
                Value::Number(Number::from(i))
            }
        }
    )*}
}
value_from_int!(i8 i16 i32 i64 isize u8 u16 u32 u64 usize);

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Value>> From<&[T]> for Value {
    fn from(v: &[T]) -> Self {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl From<Map<String, Value>> for Value {
    fn from(m: Map<String, Value>) -> Self {
        Value::Object(m)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        match o {
            Some(t) => t.into(),
            None => Value::Null,
        }
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Value::Array(iter.into_iter().collect())
    }
}

impl FromIterator<(String, Value)> for Value {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Value::Object(iter.into_iter().collect())
    }
}

// --- scalar comparisons -----------------------------------------------------

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<i64> for Value {
    fn eq(&self, other: &i64) -> bool {
        matches!(self, Value::Number(n) if *n == Number::from(*other))
    }
}

impl PartialEq<i32> for Value {
    fn eq(&self, other: &i32) -> bool {
        *self == *other as i64
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        matches!(self, Value::Number(n) if *n == Number::from(*other))
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        matches!(self, Value::Number(n) if n.is_f64() && n.as_f64() == Some(*other))
    }
}

// --- rendering --------------------------------------------------------------

/// Append `s` as a JSON string literal. The bytes are scanned, and each
/// run that needs no escape is copied whole: every byte escaped is
/// ASCII, so a run starts and ends on a character boundary.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (at, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => '"',
            b'\\' => '\\',
            b'\n' => 'n',
            b'\r' => 'r',
            b'\t' => 't',
            0x08 => 'b',
            0x0c => 'f',
            0..=0x1f => 'u',
            _ => continue,
        };
        out.push_str(&s[run..at]);
        out.push('\\');
        out.push(escape);
        if escape == 'u' {
            out.push_str("00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append compact JSON.
fn write_compact(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => escape_into(out, s),
        Value::Array(a) => {
            out.push('[');
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Value::Object(m) => {
            out.push('{');
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                write_compact(out, val);
            }
            out.push('}');
        }
    }
}

fn write_pretty(out: &mut String, v: &Value, depth: usize) {
    const INDENT: &str = "  ";
    match v {
        Value::Array(a) if !a.is_empty() => {
            out.push_str("[\n");
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&INDENT.repeat(depth + 1));
                write_pretty(out, item, depth + 1);
            }
            out.push('\n');
            out.push_str(&INDENT.repeat(depth));
            out.push(']');
        }
        Value::Object(m) if !m.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&INDENT.repeat(depth + 1));
                escape_into(out, k);
                out.push_str(": ");
                write_pretty(out, val, depth + 1);
            }
            out.push('\n');
            out.push_str(&INDENT.repeat(depth));
            out.push('}');
        }
        other => write_compact(out, other),
    }
}

/// Render compact JSON (used by `serde_json::to_string`).
#[doc(hidden)]
pub fn json_to_string(v: &Value) -> String {
    let mut out = String::new();
    write_compact(&mut out, v);
    out
}

/// Render pretty-printed JSON (used by `serde_json::to_string_pretty`).
#[doc(hidden)]
pub fn json_to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_pretty(&mut out, v, 0);
    out
}

impl fmt::Display for Value {
    /// Compact JSON, matching `serde_json`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&json_to_string(self))
    }
}
