//! `Str`, the text a `Value::String` holds, against the `&str` it
//! stands for. Over strings of 0 to 64 bytes — every length across the
//! 22-byte inline bound, multibyte characters straddling it, NUL,
//! quotes, backslashes and control characters — a `Str` must give its
//! text back from every constructor, compare and hash as the text does,
//! and render, parse and render again to the same bytes as the text
//! written out by the reference escaper below.

use serde::{Str, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

// A `Str` is a `String`'s size, and a `Value` did not grow.
const _: () = assert!(std::mem::size_of::<Str>() == 24);
const _: () = assert!(std::mem::size_of::<Value>() == 32);

/// xorshift64*: the shim has no dependencies to draw a generator from.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
    }
}

/// What text is made of: plain ASCII, every character JSON escapes
/// (and `/`, which it need not), NUL, DEL, and characters of 2, 3 and
/// 4 bytes.
const PIECES: &[&str] = &[
    "a",
    "Z",
    "0",
    " ",
    "/",
    "\"",
    "\\",
    "\n",
    "\r",
    "\t",
    "\u{8}",
    "\u{c}",
    "\0",
    "\u{1}",
    "\u{1f}",
    "\u{7f}",
    "\u{e9}",
    "\u{20ac}",
    "\u{1f600}",
];

/// Text of exactly `len` bytes: random pieces while they fit, then `a`s.
fn text(rng: &mut Rng, len: usize) -> String {
    let mut s = String::new();
    while s.len() < len {
        let piece = PIECES[rng.below(PIECES.len())];
        s.push_str(if s.len() + piece.len() <= len {
            piece
        } else {
            "a"
        });
    }
    s
}

/// Every length from 0 to 64 bytes, several times over, and each
/// multibyte character placed on every position across the inline
/// bound.
fn texts() -> Vec<String> {
    let mut rng = Rng(0x5eed_0022);
    let rounds = if cfg!(miri) { 1 } else { 6 };
    let mut out: Vec<String> = (0..rounds)
        .flat_map(|_| 0..=64)
        .map(|len| text(&mut rng, len))
        .collect();
    for wide in ["\u{e9}", "\u{20ac}", "\u{1f600}"] {
        for before in Str::INLINE - 4..=Str::INLINE {
            out.push("x".repeat(before) + wide);
            out.push("x".repeat(before) + wide + "y");
        }
    }
    out.extend(["", "\0", "\"\\"].map(String::from));
    out.push("\0".repeat(Str::INLINE + 1));
    out
}

/// JSON text for `s`, one character at a time, as `Value::to_string`
/// wrote it before strings were scanned as bytes.
fn reference_literal(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn hash_of(h: impl Hash) -> u64 {
    let mut state = DefaultHasher::new();
    h.hash(&mut state);
    state.finish()
}

#[test]
fn a_str_gives_its_text_back() {
    for s in texts() {
        let from_owned = Str::from(s.clone());
        for str in [Str::from(s.as_str()), from_owned.clone()] {
            assert_eq!(str.as_str(), s);
            assert_eq!(&*str, s);
            assert_eq!(str.as_bytes(), s.as_bytes());
            assert_eq!(str.len(), s.len());
            assert_eq!(str.to_string(), s);
            assert_eq!(format!("{str:?}"), format!("{s:?}"));
            assert_eq!(String::from(str.clone()), s);
            assert_eq!(str.clone(), str);
        }
        let v = Value::from(s.as_str());
        assert_eq!(v.as_str(), Some(s.as_str()));
        assert_eq!(v, Value::String(from_owned));
        assert_eq!(v, Value::from(s.clone()));
    }
}

#[test]
fn equality_order_and_hash_agree_with_the_text() {
    let texts = texts();
    let strs: Vec<Str> = texts.iter().map(|s| Str::from(s.as_str())).collect();
    for (a, sa) in texts.iter().zip(&strs) {
        assert_eq!(hash_of(sa), hash_of(a.as_str()), "{a:?}");
        for (b, sb) in texts.iter().zip(&strs) {
            assert_eq!(sa.cmp(sb), a.cmp(b), "{a:?} vs {b:?}");
            assert_eq!(sa == sb, a == b, "{a:?} vs {b:?}");
            assert_eq!(
                Value::String(sa.clone()) == Value::String(sb.clone()),
                a == b
            );
        }
    }
}

#[test]
fn text_writes_parses_and_writes_again_to_the_same_bytes() {
    for s in texts() {
        let literal = reference_literal(&s);
        let v = Value::from(s.as_str());
        assert_eq!(v.to_string(), literal);
        let doc = serde_json::json!({ s.as_str(): [s.as_str(), {"k": s.as_str()}] });
        let written = doc.to_string();
        assert_eq!(
            written,
            format!("{{{literal}:[{literal},{{\"k\":{literal}}}]}}")
        );
        // Parsing a compact text and writing it again gives its bytes.
        for (text, want) in [(literal.clone(), &v), (written, &doc)] {
            let parsed = serde_json::from_str_value(&text).unwrap();
            assert_eq!(&parsed, want);
            assert_eq!(parsed.to_string(), text);
        }
        let pretty = serde_json::to_string_pretty(&doc).unwrap();
        assert_eq!(serde_json::from_str_value(&pretty).unwrap(), doc);
        assert_eq!(serde_json::to_string(&s).unwrap(), literal);
        assert_eq!(serde_json::from_str::<String>(&literal).unwrap(), s);
    }
}
