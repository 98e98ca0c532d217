//! One key encoding: a value as a byte string whose `memcmp` order is
//! [`cmp_values`](crate::value::cmp_values)' order, so two values have
//! equal bytes exactly when `values_equal` calls them equal (`1` and
//! `1.0`, `-0.0` and `0`, an object's fields in any order). The `_id`
//! map and the index keys, the bulk build's sort prefixes and the shard
//! hash read it; nothing decodes it. DESIGN §10, "One key encoding",
//! has the layout: a type byte, then a number's largest `f64` at or
//! below it and the rest, a string's escaped bytes and terminator, a
//! container's parts and terminator. No encoding extends another.

use crate::value::{int_of, sorted_fields, type_rank};
use serde_json::{Number, Value};

/// A string's type byte, which an object's keys carry too, above its `00`.
const STRING: u8 = 3;

/// Write `v`'s encoding into `sink`, part by part.
pub(crate) fn encode(v: &Value, sink: &mut impl FnMut(&[u8])) {
    sink(&[type_rank(v) + 1]);
    match v {
        Value::Null => {}
        Value::Bool(b) => sink(&[u8::from(*b)]),
        Value::Number(n) => number(n, sink),
        Value::String(s) => string(s.as_bytes(), sink),
        Value::Array(items) => {
            items.iter().for_each(|item| encode(item, sink));
            sink(&[0]);
        }
        Value::Object(map) => {
            for (k, item) in sorted_fields(map) {
                sink(&[STRING]);
                string(k.as_bytes(), sink);
                encode(item, sink);
            }
            sink(&[0]);
        }
    }
}

/// `v`'s encoding, in one allocation of its exact length.
pub(crate) fn encoded(v: &Value) -> Box<[u8]> {
    let mut len = 0;
    encode(v, &mut |part| len += part.len());
    let mut out = Vec::with_capacity(len);
    encode(v, &mut |part| out.extend_from_slice(part));
    out.into_boxed_slice()
}

/// Whether `new` holds `old`'s `_id` key: both hold no `_id`, or both
/// hold one and the two encode alike. Equal values always do, so only
/// an `_id` whose form changed (`1` to `1.0`) is encoded to compare.
pub(crate) fn same_id(old: &Value, new: &Value) -> bool {
    match (old.get("_id"), new.get("_id")) {
        (Some(was), Some(now)) => was == now || encoded(was) == encoded(now),
        (was, now) => was.is_none() && now.is_none(),
    }
}

/// A string's bytes, each NUL escaped as `00 FF`, then `00 01`.
fn string(s: &[u8], sink: &mut impl FnMut(&[u8])) {
    for (i, run) in s.split(|&b| b == 0).enumerate() {
        sink(if i > 0 { &[0, 0xff] } else { &[] });
        sink(run);
    }
    sink(&[0, 1]);
}

/// A number as the largest `f64` at or below it, its bits flipped to
/// sort as unsigned, and the integer it exceeds that by: 0 for a double
/// and for every integer an `f64` holds, below 2^11 for the rest (a JSON
/// integer lies in [-2^63, 2^64), where doubles are at most 2^11 apart).
fn number(n: &Number, sink: &mut impl FnMut(&[u8])) {
    let (floor, rest) = match int_of(n) {
        Some(i) => {
            let near = i as f64;
            let floor = Some(near.next_down()).filter(|_| near as i128 > i);
            let floor = floor.unwrap_or(near);
            (floor, u16::try_from(i - floor as i128).unwrap_or(u16::MAX))
        }
        None => (n.as_f64().unwrap_or(f64::NAN), 0),
    };
    // `-0.0 == 0.0`, but their bits differ.
    let bits = if floor == 0.0 { 0 } else { floor.to_bits() };
    // A negative double's bits all flip, a positive one's sign bit.
    sink(&(bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)).to_be_bytes());
    sink(&rest.to_be_bytes());
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::value::{cmp_values, tests::hash_table, values_equal};
    use mp_model::model_order;
    use proptest::prelude::*;
    use proptest::strategy::BoxedStrategy;
    use serde_json::json;

    /// A value from `value::tests::hash_table`, a string that straddles
    /// the bulk build's 16-byte prefix or a `Str`'s 22 inline bytes
    /// (NULs, multi-byte characters, a stem of 0 to 21 bytes), a number
    /// at an `i64`/`u64`/`f64` edge, or an array or object of those.
    pub(crate) fn value() -> impl Strategy<Value = Value> {
        let table = hash_table();
        let stem = prop_oneof![
            Just(""),
            Just("abcdefghijkl"),
            Just("abcdefghijklm"),
            Just("abcdefghijklmnop"),
            // One byte short of the text a `Str` holds inline.
            Just("abcdefghijklmnopqrstu")
        ];
        let piece = prop_oneof![
            Just("\0"),
            Just("\u{1}"),
            Just("a"),
            Just("\u{e9}"),
            Just("\u{1f600}")
        ];
        let string = (stem, prop::collection::vec(piece, 0..6)).prop_map(|(stem, pieces)| {
            Value::from(pieces.into_iter().fold(stem.to_string(), |s, p| s + p))
        });
        let two53 = 1u64 << 53;
        let number = prop_oneof![
            prop_oneof![
                Just(i64::MIN),
                Just(i64::MIN + 1),
                Just(-(two53 as i64) - 1),
                Just(-1),
                Just(0),
                Just(1),
                Just(i64::MAX)
            ]
            .prop_map(Value::from),
            prop_oneof![
                Just(two53 - 1),
                Just(two53),
                Just(two53 + 1),
                Just(u64::MAX - 1),
                Just(u64::MAX)
            ]
            .prop_map(Value::from),
            prop_oneof![
                Just(-0.0),
                Just(0.5),
                Just(-1.0),
                Just(two53 as f64),
                Just(9223372036854775808.0),
                Just(18446744073709551616.0),
                Just(-1e300)
            ]
            .prop_map(Value::from),
        ];
        let scalar = prop_oneof![
            (0..table.len()).prop_map(move |i| table[i].clone()),
            string,
            number
        ];
        let nest = |inner: BoxedStrategy<Value>| {
            prop_oneof![
                inner.clone(),
                prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Array),
                (inner.clone(), inner).prop_map(|(a, b)| json!({"a": a, "": b})),
            ]
            .boxed()
        };
        nest(nest(scalar.boxed()))
    }

    /// Every pair of the table, the number edges beside it and strings
    /// around a NUL, against both oracles: the pairs the random draws
    /// below meet rarely (`-0.0` beside `0`, 2^53 beside 2^53 + 1).
    #[test]
    fn every_pair_of_the_table_orders_like_both_oracles() {
        let mut vs = hash_table();
        vs.extend([
            json!(0.0),
            json!(i64::MIN + 1),
            json!(-(1i64 << 53) - 1),
            json!(-1e300),
            json!(""),
            json!("a"),
            json!("a\u{0}"),
            json!("a\u{0}\u{0}"),
            json!("a\u{1}"),
            json!([]),
            json!({}),
            json!({"": null}),
        ]);
        for a in &vs {
            for b in &vs {
                let (ka, kb) = (encoded(a), encoded(b));
                assert_eq!(ka.cmp(&kb), cmp_values(a, b), "{a} vs {b}");
                assert_eq!(ka == kb, values_equal(a, b), "{a} vs {b}");
                assert_eq!(ka.cmp(&kb), model_order(a, b), "{a} vs {b}");
            }
        }
    }

    /// A string's key does not depend on where its text lives: on either
    /// side of the 22 bytes a `Str` holds inline, it is the type byte,
    /// the bytes with each NUL escaped, and `00 01`, built here from a
    /// `String`.
    #[test]
    fn a_string_key_is_its_escaped_bytes_on_either_side_of_the_inline_bound() {
        for len in 0..=64 {
            for fill in ["a", "\0", "\u{e9}", "\u{1f600}"] {
                let mut text = fill.repeat(len / fill.len());
                text.extend(std::iter::repeat_n('b', len - text.len()));
                let mut want = vec![STRING];
                for b in text.bytes() {
                    match b {
                        0 => want.extend([0, 0xff]),
                        b => want.push(b),
                    }
                }
                want.extend([0, 1]);
                assert_eq!(*encoded(&Value::from(text.as_str())), *want, "{text:?}");
                // A name is written the same way.
                let object = encoded(&json!({ text.as_str(): null }));
                assert_eq!(object[1..want.len() + 1], *want, "{text:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// The bytes order as `cmp_values` does, and are equal exactly
        /// when `values_equal` says so.
        #[test]
        fn the_bytes_order_like_cmp_values(a in value(), b in value()) {
            let (ka, kb) = (encoded(&a), encoded(&b));
            prop_assert_eq!(ka.cmp(&kb), cmp_values(&a, &b), "{} vs {}", a, b);
            prop_assert_eq!(ka == kb, values_equal(&a, &b), "{} vs {}", a, b);
        }

        /// The bytes order as `mp-model`'s order, which shares no code
        /// with the store.
        #[test]
        fn the_bytes_order_like_the_model(a in value(), b in value()) {
            let (ka, kb) = (encoded(&a), encoded(&b));
            prop_assert_eq!(ka.cmp(&kb), model_order(&a, &b), "{} vs {}", a, b);
        }
    }
}
