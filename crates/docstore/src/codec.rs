//! The binary form of a [`Value`]: what the store writes at rest — WAL
//! frame payloads and snapshot records ([`crate::persist`]).
//!
//! ```text
//! value  := 0x00                      null
//!         | 0x01 | 0x02               false | true
//!         | 0x03 varint               integer n >= 0
//!         | 0x04 varint               integer n < 0, stored as !n (= -n - 1)
//!         | 0x05 u64 LE               double, its IEEE-754 bits
//!         | 0x06 text                 string
//!         | 0x07 varint value*        array: its length, then its items
//!         | 0x08 varint (text value)* object: its length, then name/value pairs
//! text   := varint byte*              length, then that many bytes of UTF-8
//! varint := LEB128, at most ten bytes
//! ```
//!
//! A `Number` keeps the form it has in memory: an integer is never
//! turned into a double or back (`1` and `1.0` stay unequal, integers
//! past 2^53 stay exact), and a double is its bits (`-0.0` stays
//! negative). Field names are written inline, so every encoded value
//! decodes on its own; decoding enters them through the interner
//! `Map::insert_str` uses, so a name the process already shares costs
//! no allocation.
//!
//! Decoding is what recovery does to bytes it did not write this run,
//! so it trusts nothing: every length is checked against the bytes left
//! *before* anything is reserved for it (an item is at least one byte,
//! an object entry at least two), nesting stops at [`MAX_DEPTH`] like
//! the JSON parser's, and every failure is a [`CodecError`] naming the
//! offset — never a panic. Containers are allocated at their final
//! size, as the parser allocates them, and a string's text is held
//! inline or boxed at its length: a decoded document becomes resident
//! as it is.

use serde_json::{Map, Number, Value};
use std::fmt;

/// Deepest nesting [`decode`] accepts: the root is at depth 0,
/// the items of a container one deeper than it — the JSON parser's
/// bound, so a document either both accept or both refuse.
pub const MAX_DEPTH: usize = 128;

const NULL: u8 = 0x00;
const FALSE: u8 = 0x01;
const TRUE: u8 = 0x02;
const UINT: u8 = 0x03;
const NEG_INT: u8 = 0x04;
const DOUBLE: u8 = 0x05;
const STRING: u8 = 0x06;
const ARRAY: u8 = 0x07;
const OBJECT: u8 = 0x08;

/// Why bytes failed to decode, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError {
    /// Offset into the decoded input where the bad item starts.
    pub at: usize,
    /// What was wrong there.
    pub kind: ErrorKind,
}

/// What was wrong with the bytes at [`CodecError::at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input ends inside an item.
    Truncated,
    /// A byte that starts no value (or no record).
    UnknownTag(u8),
    /// A varint longer than ten bytes or past `u64::MAX`.
    BadVarint,
    /// A length or count the bytes left could not hold.
    Oversized(u64),
    /// A negative integer below `i64::MIN`.
    OutOfRange,
    /// A double that is NaN or infinite, which no `Number` holds.
    NotFinite,
    /// A string or name that is not UTF-8.
    InvalidUtf8,
    /// Nesting past [`MAX_DEPTH`].
    TooDeep,
    /// Bytes left over after the item the input should hold.
    Trailing,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = self.at;
        match self.kind {
            ErrorKind::Truncated => write!(f, "input ends inside the item at byte {at}"),
            ErrorKind::UnknownTag(tag) => write!(f, "unknown tag {tag:#04x} at byte {at}"),
            ErrorKind::BadVarint => write!(f, "malformed varint at byte {at}"),
            ErrorKind::Oversized(n) => {
                write!(f, "length {n} at byte {at} exceeds the bytes left")
            }
            ErrorKind::OutOfRange => write!(f, "integer below i64::MIN at byte {at}"),
            ErrorKind::NotFinite => write!(f, "non-finite double at byte {at}"),
            ErrorKind::InvalidUtf8 => write!(f, "text at byte {at} is not UTF-8"),
            ErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}"),
            ErrorKind::Trailing => write!(f, "trailing bytes at byte {at}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append the encoding of `v` to `out`, written from the borrow.
pub fn encode(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(NULL),
        Value::Bool(false) => out.push(FALSE),
        Value::Bool(true) => out.push(TRUE),
        Value::Number(n) => encode_number(n, out),
        Value::String(s) => {
            out.push(STRING);
            encode_text(s.as_bytes(), out);
        }
        Value::Array(items) => {
            out.push(ARRAY);
            encode_varint(items.len() as u64, out);
            items.iter().for_each(|item| encode(item, out));
        }
        Value::Object(map) => {
            out.push(OBJECT);
            encode_varint(map.len() as u64, out);
            for (name, item) in map {
                encode_text(name.as_bytes(), out);
                encode(item, out);
            }
        }
    }
}

/// A `Number` is a double, a `u64`, or an `i64` below zero.
fn encode_number(n: &Number, out: &mut Vec<u8>) {
    if n.is_f64() {
        out.push(DOUBLE);
        let bits = n.as_f64().unwrap_or_default().to_bits();
        out.extend_from_slice(&bits.to_le_bytes());
    } else if let Some(u) = n.as_u64() {
        out.push(UINT);
        encode_varint(u, out);
    } else {
        out.push(NEG_INT);
        encode_varint(!n.as_i64().unwrap_or(-1) as u64, out);
    }
}

/// Append `s` as a length-prefixed string.
pub(crate) fn encode_text(s: &[u8], out: &mut Vec<u8>) {
    encode_varint(s.len() as u64, out);
    out.extend_from_slice(s);
}

/// Append `n` as an LEB128 varint: seven bits a byte, low bits first.
fn encode_varint(mut n: u64, out: &mut Vec<u8>) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Decode `bytes` as exactly one value.
pub fn decode(bytes: &[u8]) -> Result<Value, CodecError> {
    let mut reader = Reader::new(bytes);
    let v = reader.value()?;
    reader.finish()?;
    Ok(v)
}

/// A cursor over encoded bytes.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn fail(&self, at: usize, kind: ErrorKind) -> CodecError {
        CodecError { at, kind }
    }

    /// Bytes not read yet.
    fn left(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.saturating_add(n);
        match self.bytes.get(self.pos..end) {
            Some(taken) => {
                self.pos = end;
                Ok(taken)
            }
            None => Err(self.fail(self.pos, ErrorKind::Truncated)),
        }
    }

    pub(crate) fn byte(&mut self) -> Result<u8, CodecError> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(self.fail(self.pos, ErrorKind::Truncated)),
        }
    }

    /// A byte that must be 0 or 1.
    pub(crate) fn flag(&mut self) -> Result<bool, CodecError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.fail(self.pos - 1, ErrorKind::UnknownTag(other))),
        }
    }

    /// Eight bytes, little-endian.
    pub(crate) fn fixed_u64(&mut self) -> Result<u64, CodecError> {
        let mut word = [0u8; 8];
        word.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(word))
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let at = self.pos;
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7F);
            if shift == 63 && bits > 1 {
                return Err(self.fail(at, ErrorKind::BadVarint));
            }
            n |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(n);
            }
        }
        Err(self.fail(at, ErrorKind::BadVarint))
    }

    /// A length or count of items each at least `min` bytes long,
    /// refused when the bytes left could not hold that many.
    fn count(&mut self, min: usize) -> Result<usize, CodecError> {
        let at = self.pos;
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(count) if count <= self.left() / min => Ok(count),
            _ => Err(self.fail(at, ErrorKind::Oversized(n))),
        }
    }

    /// A length-prefixed string, borrowed from the input.
    pub(crate) fn text(&mut self) -> Result<&'a str, CodecError> {
        let len = self.count(1)?;
        let at = self.pos;
        std::str::from_utf8(self.take(len)?).map_err(|_| self.fail(at, ErrorKind::InvalidUtf8))
    }

    /// One value.
    pub(crate) fn value(&mut self) -> Result<Value, CodecError> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Value, CodecError> {
        let at = self.pos;
        if depth > MAX_DEPTH {
            return Err(self.fail(at, ErrorKind::TooDeep));
        }
        Ok(match self.byte()? {
            NULL => Value::Null,
            FALSE => Value::Bool(false),
            TRUE => Value::Bool(true),
            UINT => Value::from(self.varint()?),
            NEG_INT => match i64::try_from(self.varint()?) {
                Ok(n) => Value::from(!n),
                Err(_) => return Err(self.fail(at, ErrorKind::OutOfRange)),
            },
            DOUBLE => Number::from_f64(f64::from_bits(self.fixed_u64()?))
                .map(Value::Number)
                .ok_or(self.fail(at, ErrorKind::NotFinite))?,
            STRING => Value::String(self.text()?.into()),
            ARRAY => {
                let len = self.count(1)?;
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(self.value_at(depth + 1)?);
                }
                Value::Array(items)
            }
            OBJECT => {
                let len = self.count(2)?;
                let mut map = Map::with_capacity(len);
                for _ in 0..len {
                    let name = self.text()?;
                    let item = self.value_at(depth + 1)?;
                    map.insert_str(name, item);
                }
                // A repeated name keeps its first slot and its last
                // value, as in the parser, and leaves no slot spare.
                if map.len() < len {
                    map.shrink_to_fit();
                }
                Value::Object(map)
            }
            tag => return Err(self.fail(at, ErrorKind::UnknownTag(tag))),
        })
    }

    /// Refuse bytes left over.
    pub(crate) fn finish(&self) -> Result<(), CodecError> {
        match self.left() {
            0 => Ok(()),
            _ => Err(self.fail(self.pos, ErrorKind::Trailing)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_refuse_overflow() {
        let mut out = Vec::new();
        encode_varint(u64::MAX, &mut out);
        assert_eq!(out.len(), 10);
        assert_eq!(Reader::new(&out).varint(), Ok(u64::MAX));
        out[9] = 0x02;
        assert_eq!(
            Reader::new(&out).varint().unwrap_err().kind,
            ErrorKind::BadVarint
        );
        let long = [0x80u8; 11];
        assert_eq!(
            Reader::new(&long).varint().unwrap_err().kind,
            ErrorKind::BadVarint
        );
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        // An array claiming 2^40 items in a five-byte input is refused
        // before anything is reserved for them.
        let mut out = vec![ARRAY];
        encode_varint(1 << 40, &mut out);
        assert_eq!(
            decode(&out).unwrap_err(),
            CodecError {
                at: 1,
                kind: ErrorKind::Oversized(1 << 40)
            }
        );
        // Two object entries need at least four bytes.
        assert_eq!(
            decode(&[OBJECT, 2, 1, b'a', NULL]).unwrap_err().kind,
            ErrorKind::Oversized(2)
        );
        assert_eq!(
            decode(&[NEG_INT, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01])
                .unwrap_err()
                .kind,
            ErrorKind::OutOfRange
        );
        assert_eq!(decode(&[NULL, NULL]).unwrap_err().kind, ErrorKind::Trailing);
        let mut nan = vec![DOUBLE];
        nan.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(decode(&nan).unwrap_err().kind, ErrorKind::NotFinite);
    }
}
