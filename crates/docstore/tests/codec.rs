//! Oracles for the binary record codec (`mp_docstore::codec`), the
//! form every WAL frame and snapshot record holds since PR 25:
//!
//! * `decode(encode(v)) == v` with each `Number`'s form kept — `u64`,
//!   negative `i64`, double bit for bit — over generated values with
//!   non-ASCII text, names past the interner's 64-byte bound and empty
//!   containers, every container decoded at its final size;
//! * nesting is bounded where the JSON parser bounds it;
//! * arbitrary, corrupted or truncated bytes decode to a value or a
//!   typed error, never a panic, and never make an allocation larger
//!   than the input could describe.
//!
//! Its own test binary, because it installs a `#[global_allocator]`
//! (`mp_testalloc`'s) to read the largest request the decoding thread
//! makes.

use mp_docstore::codec::{decode, encode, ErrorKind, MAX_DEPTH};
use proptest::prelude::*;
use serde_json::{json, Map, Value};

mp_testalloc::install!();

/// Decode `bytes` and check the allocation bound: no request larger
/// than one `Value` per input byte. (A container of `n` items is
/// refused unless `n` bytes are left, an object unless `2n` are, so a
/// reservation is bounded by the input that claims it.)
fn decode_bounded(bytes: &[u8]) -> Result<Value, mp_docstore::codec::CodecError> {
    let (out, cost) = mp_testalloc::counted(|| decode(bytes));
    let largest = cost.largest;
    let bound = bytes.len().max(1) * std::mem::size_of::<Value>();
    assert!(
        largest <= bound,
        "{}-byte input made a {largest}-byte allocation (bound {bound}): {bytes:?}",
        bytes.len()
    );
    out
}

fn encoded(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode(v, &mut out);
    out
}

/// `a` and `b` are the same value in the same form — numbers of the
/// same kind with the same bits, names in the same order — and every
/// container of `b` is allocated at its final size.
fn assert_same_form(a: &Value, b: &Value) {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => {
            assert_eq!(x.is_f64(), y.is_f64(), "{a} vs {b}");
            assert_eq!(x.as_u64(), y.as_u64(), "{a} vs {b}");
            assert_eq!(x.as_i64(), y.as_i64(), "{a} vs {b}");
            let bits = |n: &serde_json::Number| n.as_f64().map(f64::to_bits);
            assert_eq!(bits(x), bits(y), "{a} vs {b}");
        }
        // A string's text is inline or a `Box<str>`: sized by its type.
        (Value::String(x), Value::String(y)) => assert_eq!(x, y),
        (Value::Array(x), Value::Array(y)) => {
            assert_eq!(x.len(), y.len(), "{a} vs {b}");
            assert_eq!(y.capacity(), y.len(), "{b}");
            x.iter().zip(y).for_each(|(x, y)| assert_same_form(x, y));
        }
        (Value::Object(x), Value::Object(y)) => {
            assert_eq!(x.len(), y.len(), "{a} vs {b}");
            assert_eq!(y.capacity(), y.len(), "{b}");
            for ((kx, vx), (ky, vy)) in x.iter().zip(y) {
                assert_eq!(kx, ky);
                assert_same_form(vx, vy);
            }
        }
        _ => assert_eq!(a, b),
    }
}

/// A splitmix64 stream: proptest draws the seed, this draws a value.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn number(&mut self) -> Value {
        match self.below(12) {
            0 => json!(u64::MAX),
            1 => json!(i64::MIN),
            2 => json!((1u64 << 53) + 1),
            3 => json!(-(1i64 << 53) - 1),
            4 => json!(-0.0),
            5 => json!(1.0),
            6 => json!(self.below(300)),
            7 => json!(-(self.below(300) as i64) - 1),
            8 => json!(self.next()),
            9 => json!(self.next() as i64),
            10 => json!(f64::MIN_POSITIVE / 4.0),
            _ => {
                let f = f64::from_bits(self.next());
                json!(if f.is_finite() { f } else { 0.5 })
            }
        }
    }

    fn text(&mut self) -> String {
        const PIECES: [&str; 10] = ["a", "Fe", "é", "∑", "𝔊", "\"", "\\", "\n", "\0", "_id"];
        if self.below(16) == 0 {
            // Past the interner's 64-byte bound: an owned key.
            return "long-name-".repeat(7 + self.below(3) as usize);
        }
        (0..self.below(6))
            .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
            .collect()
    }

    fn value(&mut self, depth: usize) -> Value {
        let kinds = if depth >= 4 { 6 } else { 8 };
        match self.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 1),
            2 | 3 => self.number(),
            4 | 5 => Value::String(self.text().into()),
            6 => Value::Array((0..self.below(5)).map(|_| self.value(depth + 1)).collect()),
            _ => {
                let mut map = Map::new();
                for _ in 0..self.below(6) {
                    let name = self.text();
                    map.insert(name, self.value(depth + 1));
                }
                Value::Object(map)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn round_trip_keeps_every_value_and_number_form(seed in any::<u64>()) {
        let v = Gen(seed).value(0);
        let bytes = encoded(&v);
        let back = decode_bounded(&bytes).unwrap();
        prop_assert_eq!(&back, &v);
        assert_same_form(&v, &back);
        prop_assert_eq!(back.to_string(), v.to_string());
    }

    /// Every prefix of a valid encoding is refused, and every single-byte
    /// corruption decodes to something or to a typed error.
    #[test]
    fn truncated_or_flipped_encodings_never_panic(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        let bytes = encoded(&gen.value(0));
        for n in 0..bytes.len() {
            prop_assert!(decode_bounded(&bytes[..n]).is_err());
        }
        let mut flipped = bytes.clone();
        let at = gen.below(bytes.len() as u64) as usize;
        flipped[at] ^= 1 << gen.below(8);
        let _ = decode_bounded(&flipped);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_bounded(&bytes);
    }

    /// Bytes drawn mostly from the tags and small lengths, so that many
    /// inputs get deep into containers before they go wrong.
    #[test]
    fn tag_shaped_bytes_never_panic(bytes in prop::collection::vec(0u8..=10, 0..48)) {
        let _ = decode_bounded(&bytes);
    }
}

#[test]
fn edge_values_round_trip_bit_for_bit() {
    let long = "n".repeat(65);
    let v = json!({
        "u": u64::MAX, "i": i64::MIN, "big": 9_007_199_254_740_993u64,
        "neg_zero": -0.0, "one": 1, "one_f": 1.0,
        "text": "Fe₂O₃ — ∑ 𝔊", "é": [], long.as_str(): {}, "": "",
    });
    let back = decode_bounded(&encoded(&v)).unwrap();
    assert_same_form(&v, &back);
    assert_eq!(
        back["neg_zero"].as_f64().unwrap().to_bits(),
        (-0.0f64).to_bits()
    );
    assert_ne!(back["one"], back["one_f"], "1 and 1.0 stay apart");
    assert_eq!(back["big"].as_u64(), Some(9_007_199_254_740_993));
}

/// A string record does not depend on where its text lives: on either
/// side of the 22 bytes a `Str` holds inline, it is the layout in the
/// module docs — `0x06`, the length, the bytes — built here from a
/// `String`, and the same text as a name is written the same way.
#[test]
fn a_string_is_its_length_and_bytes_on_either_side_of_the_inline_bound() {
    for len in 0..=64 {
        for fill in ["a", "\0", "\"", "\u{e9}", "\u{1f600}"] {
            let mut text = fill.repeat(len / fill.len());
            text.extend(std::iter::repeat_n('b', len - text.len()));
            let mut want = vec![0x06, len as u8];
            want.extend_from_slice(text.as_bytes());
            let v = Value::from(text.as_str());
            assert_eq!(encoded(&v), want, "{text:?}");
            assert_eq!(decode_bounded(&want).unwrap(), v);
            // An object of one field: `0x08`, `1`, the name, the value.
            let object = encoded(&json!({ text.as_str(): text.as_str() }));
            assert_eq!(object[2..], [&want[1..], &want[..]].concat(), "{text:?}");
        }
    }
}

/// A scalar inside `n` arrays (or objects) sits at depth `n`.
fn nested(n: usize, object: bool) -> Value {
    (0..n).fold(json!(1), |inner, _| match object {
        true => json!({ "k": inner }),
        false => json!([inner]),
    })
}

#[test]
fn nesting_is_bounded_where_the_parser_bounds_it() {
    for object in [false, true] {
        for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, MAX_DEPTH + 2] {
            let v = nested(depth, object);
            let parsed = serde_json::from_str_value(&v.to_string());
            let decoded = decode_bounded(&encoded(&v));
            assert_eq!(decoded.is_ok(), parsed.is_ok(), "depth {depth}");
            assert_eq!(decoded.is_ok(), depth <= MAX_DEPTH, "depth {depth}");
            if let Err(e) = decoded {
                assert_eq!(e.kind, ErrorKind::TooDeep);
            }
        }
    }
    assert_eq!(MAX_DEPTH, 128);
}
