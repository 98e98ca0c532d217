//! Recursive-descent JSON parser for the `serde_json` shim.
//!
//! Every array and object is allocated once, at its final size: the
//! parser gathers a container's members on a stack it keeps for the
//! purpose and copies them out when the closing bracket tells it how
//! many there are. (`Vec::new()` and pushing would leave a nine-field
//! document holding sixteen slots, and every stored document has been
//! through here at least once — recovery parses the snapshot.)

use std::cell::Cell;
use std::ops::Range;

use serde::{Error, Map, Number, Str, Value};

const MAX_DEPTH: usize = 128;

/// The members of the containers that are open, innermost last: a
/// container's members are everything above the mark taken when it
/// opened.
#[derive(Default)]
struct Scratch {
    items: Vec<Value>,
    fields: Vec<(Literal, Value)>,
}

/// A string literal as scanned: its span of the input when it was
/// written without an escape — so a field name the process already
/// shares is looked up from the input and never copied — and its
/// decoded text otherwise.
enum Literal {
    Span(Range<usize>),
    Decoded(String),
}

thread_local! {
    /// The stack the previous parse on this thread used, kept for its
    /// capacity: a document is parsed with no allocation that does not
    /// end up in the document.
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch { items: Vec::new(), fields: Vec::new() })
    };
}

/// Members above which a finished parse drops its stack instead of
/// keeping it: one huge array must not pin its size on the thread.
const SCRATCH_KEEP: usize = 1024;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    scratch: Scratch,
}

/// Parse a JSON document into a [`Value`].
pub fn from_str_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
        // `try_with`: a parse inside a thread-local destructor, after
        // this one is gone, gathers on a stack of its own.
        scratch: SCRATCH.try_with(Cell::take).unwrap_or_default(),
    };
    let parsed = p.document();
    let mut scratch = p.scratch;
    if scratch.items.capacity() <= SCRATCH_KEEP && scratch.fields.capacity() <= SCRATCH_KEEP {
        // An error inside a container leaves its members behind.
        scratch.items.clear();
        scratch.fields.clear();
        let _ = SCRATCH.try_with(|kept| kept.set(scratch));
    }
    parsed
}

impl<'a> Parser<'a> {
    fn document(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let v = self.value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error::custom(format!(
                "trailing characters at byte {}",
                self.pos
            )));
        }
        Ok(v)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::custom("JSON nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(match self.string()? {
                Literal::Span(span) => Str::from(&self.src[span]),
                Literal::Decoded(text) => Str::from(text),
            })),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::custom(format!(
                "unexpected character {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(Vec::new()));
        }
        let mark = self.scratch.items.len();
        loop {
            self.skip_ws();
            let item = self.value(depth + 1)?;
            self.scratch.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    // `Drain` reports its exact length: one allocation.
                    return Ok(Value::Array(self.scratch.items.drain(mark..).collect()));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(Map::new()));
        }
        let mark = self.scratch.fields.len();
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            self.scratch.fields.push((name, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(self.finish_object(mark)));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    /// The fields gathered above `mark`, as a map with a slot for each
    /// and none spare. A name that repeats keeps its first position and
    /// its last value.
    fn finish_object(&mut self, mark: usize) -> Map<String, Value> {
        let src = self.src;
        let fields = self.scratch.fields.drain(mark..);
        let gathered = fields.len();
        let mut out = Map::with_capacity(gathered);
        for (name, val) in fields {
            match name {
                Literal::Span(span) => out.insert_str(&src[span], val),
                Literal::Decoded(name) => out.insert(name, val),
            };
        }
        if out.len() < gathered {
            out.shrink_to_fit();
        }
        out
    }

    /// The string literal at the cursor: its span of the input when it
    /// has no escape (the quotes and every byte that ends a run are
    /// ASCII, so the span's ends are character boundaries of `src`).
    fn string(&mut self) -> Result<Literal, Error> {
        self.expect(b'"')?;
        let open = self.pos;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: advance over plain UTF-8 until a quote or escape.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if start == open && self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(Literal::Span(open..self.pos - 1));
            }
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Literal::Decoded(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::custom("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::custom("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                Some(c) if c < 0x20 => return Err(Error::custom("control character in string")),
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::custom("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::custom("invalid \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(s, 16).map_err(|_| Error::custom("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::from(i)));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from(u)));
            }
        }
        let f = text
            .parse::<f64>()
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))?;
        Number::from_f64(f)
            .map(Value::Number)
            .ok_or_else(|| Error::custom(format!("non-finite number `{text}`")))
    }
}
