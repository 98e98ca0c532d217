//! Dotted-path access and BSON-like value ordering over [`serde_json::Value`].
//!
//! MongoDB addresses nested fields with dotted paths (`"spec.elements.0"`),
//! and sorts mixed-type values by a fixed type precedence. Both behaviours
//! are reproduced here because the rest of the system (query matcher,
//! update engine, indexes, cursors) is built on them.

use serde_json::{Map, Number, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// A document is a JSON object; this alias marks the intent.
pub type Document = Value;

/// A shared-ownership result set: the read path hands out `Arc`s to the
/// stored documents instead of deep clones, so a match costs a pointer
/// bump and returned documents are immutable snapshots (writers replace
/// the `Arc` in the store; they never mutate through it).
pub type Docs = Vec<Arc<Document>>;

/// Wrap owned documents into the shared-ownership form used by the read
/// path (handy for tests and benches that build corpora by hand).
pub fn to_docs(docs: Vec<Value>) -> Docs {
    docs.into_iter().map(Arc::new).collect()
}

/// Split a dotted path into segments. An empty path yields no segments.
pub fn path_segments(path: &str) -> impl Iterator<Item = &str> {
    path.split('.').filter(|s| !s.is_empty())
}

/// One pre-split segment of a dotted path: the raw key plus its numeric
/// parse, done once at compile time instead of per document per predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSeg {
    /// The segment text (`"elements"` in `"spec.elements.0"`).
    pub key: String,
    /// `Some(n)` when the segment is a valid array index.
    pub index: Option<usize>,
}

/// Pre-split a dotted path into segments (see [`PathSeg`]).
pub fn compile_path(path: &str) -> Vec<PathSeg> {
    path_segments(path)
        .map(|s| PathSeg {
            key: s.to_string(),
            index: s.parse::<usize>().ok(),
        })
        .collect()
}

/// [`get_path`] over pre-split segments: no per-call splitting or numeric
/// re-parsing. Same strict semantics (arrays only by numeric index).
pub fn get_path_segs<'a>(doc: &'a Value, segs: &[PathSeg]) -> Option<&'a Value> {
    let mut cur = doc;
    for seg in segs {
        match cur {
            Value::Object(m) => cur = m.get(&seg.key)?,
            Value::Array(a) => cur = a.get(seg.index?)?,
            _ => return None,
        }
    }
    Some(cur)
}

/// Zero-allocation twin of [`get_path_multi`]: visit every value reachable
/// at the pre-split path (with MongoDB's implicit array traversal) until
/// `pred` returns true. Returns whether any visited value satisfied it.
/// Visit order is identical to the order `get_path_multi` collects in, so
/// "first match" semantics agree between the two.
pub fn any_at_path(doc: &Value, segs: &[PathSeg], pred: &mut dyn FnMut(&Value) -> bool) -> bool {
    let Some((seg, rest)) = segs.split_first() else {
        return pred(doc);
    };
    match doc {
        Value::Object(m) => m.get(&seg.key).is_some_and(|v| any_at_path(v, rest, pred)),
        Value::Array(a) => {
            if let Some(v) = seg.index.and_then(|idx| a.get(idx)) {
                if any_at_path(v, rest, pred) {
                    return true;
                }
            }
            // Implicit traversal: apply the same path to each element.
            a.iter()
                .filter(|v| v.is_object())
                .any(|v| any_at_path(v, segs, pred))
        }
        _ => false,
    }
}

/// Fetch the value at `path` inside `doc`, if present.
///
/// Array elements can be addressed by numeric segment. Like MongoDB, a
/// non-numeric segment applied to an array is *not* resolved here; use
/// [`get_path_multi`] for the implicit array traversal the query matcher
/// performs.
pub fn get_path<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    let mut cur = doc;
    for seg in path_segments(path) {
        match cur {
            Value::Object(m) => cur = m.get(seg)?,
            Value::Array(a) => {
                let idx: usize = seg.parse().ok()?;
                cur = a.get(idx)?;
            }
            _ => return None,
        }
    }
    Some(cur)
}

/// Fetch all values reachable at `path`, traversing *through* arrays the
/// way MongoDB's matcher does: a path `"tags.name"` applied to a document
/// whose `tags` field is an array of objects yields the `name` of every
/// element.
pub fn get_path_multi<'a>(doc: &'a Value, path: &str) -> Vec<&'a Value> {
    let mut out = Vec::new();
    for_each_at_path(doc, path, &mut |v| out.push(v));
    out
}

/// Visit every value [`get_path_multi`] collects, in the same order,
/// walking the dotted path in place: nothing is allocated, neither the
/// segments nor the values visited.
pub(crate) fn for_each_at_path<'a, F: FnMut(&'a Value)>(cur: &'a Value, path: &str, visit: &mut F) {
    let path = path.trim_start_matches('.');
    if path.is_empty() {
        return visit(cur);
    }
    let (seg, rest) = path.split_once('.').unwrap_or((path, ""));
    match cur {
        Value::Object(m) => {
            if let Some(v) = m.get(seg) {
                for_each_at_path(v, rest, visit);
            }
        }
        Value::Array(a) => {
            if let Some(v) = seg.parse::<usize>().ok().and_then(|idx| a.get(idx)) {
                for_each_at_path(v, rest, visit);
            }
            // Implicit traversal: apply the same path to each element.
            for v in a {
                if v.is_object() {
                    for_each_at_path(v, path, visit);
                }
            }
        }
        _ => {}
    }
}

/// Set `path` in `doc` to `value`, creating intermediate objects as needed
/// (MongoDB `$set` semantics). Numeric segments extend arrays with nulls.
///
/// Returns an error string if the path traverses a scalar.
// mp-flow: allow(R001, R002) — the `segs[i + 1]` lookahead is guarded by `!last`, array slots are grown by the `while a.len() <= idx` loop, and the loop returns on the last segment so the trailing `unreachable!` cannot fire.
pub fn set_path(doc: &mut Value, path: &str, value: Value) -> Result<(), String> {
    let segs: Vec<&str> = path_segments(path).collect();
    if segs.is_empty() {
        return Err("empty path".into());
    }
    let mut cur = doc;
    for (i, seg) in segs.iter().enumerate() {
        let last = i == segs.len() - 1;
        match cur {
            Value::Object(m) => {
                if last {
                    m.insert((*seg).to_string(), value);
                    return Ok(());
                }
                let next_is_index = segs[i + 1].parse::<usize>().is_ok();
                let entry = m.entry((*seg).to_string()).or_insert_with(|| {
                    if next_is_index {
                        Value::Array(vec![])
                    } else {
                        Value::Object(Map::new())
                    }
                });
                if entry.is_null() {
                    *entry = if next_is_index {
                        Value::Array(vec![])
                    } else {
                        Value::Object(Map::new())
                    };
                }
                cur = entry;
            }
            Value::Array(a) => {
                let idx: usize = seg
                    .parse()
                    .map_err(|_| format!("cannot index array with '{seg}'"))?;
                while a.len() <= idx {
                    a.push(Value::Null);
                }
                if last {
                    a[idx] = value;
                    return Ok(());
                }
                if a[idx].is_null() {
                    let next_is_index = segs[i + 1].parse::<usize>().is_ok();
                    a[idx] = if next_is_index {
                        Value::Array(vec![])
                    } else {
                        Value::Object(Map::new())
                    };
                }
                cur = &mut a[idx];
            }
            other => {
                return Err(format!(
                    "cannot traverse scalar {} at segment '{seg}'",
                    type_name(other)
                ))
            }
        }
    }
    unreachable!("loop returns on last segment")
}

/// [`set_path`] over pre-split segments: the path is compiled once per
/// query ([`compile_path`]) instead of re-split and re-parsed per
/// document. Semantics are identical, including array creation when the
/// next segment is numeric and null-padding of extended arrays.
// mp-lint: allow(H002, H003) — building an owned output document requires fresh containers; the format! calls are error paths.
// mp-flow: allow(R001, R002) — same shape as `set_path`: the `segs[i + 1]` lookahead is guarded by `!last`, the `m[…]` entry is present because the lines above it insert one where it was missing, and the loop returns on the last segment, so the trailing `unreachable!` cannot fire.
pub fn set_path_segs(doc: &mut Value, segs: &[PathSeg], value: Value) -> Result<(), String> {
    if segs.is_empty() {
        return Err("empty path".into());
    }
    let mut cur = doc;
    for (i, seg) in segs.iter().enumerate() {
        let last = i == segs.len() - 1;
        match cur {
            Value::Object(m) => {
                if last {
                    m.insert_str(&seg.key, value);
                    return Ok(());
                }
                // A missing entry and a null one both become the
                // container the next segment needs (a null keeps its
                // position); the key is never copied to find out.
                if m.get(&seg.key).is_none_or(Value::is_null) {
                    let fresh = if segs[i + 1].index.is_some() {
                        Value::Array(vec![])
                    } else {
                        Value::Object(Map::new())
                    };
                    m.insert_str(&seg.key, fresh);
                }
                cur = &mut m[&seg.key];
            }
            Value::Array(a) => {
                let idx: usize = seg
                    .index
                    .ok_or_else(|| format!("cannot index array with '{}'", seg.key))?;
                while a.len() <= idx {
                    a.push(Value::Null);
                }
                if last {
                    a[idx] = value;
                    return Ok(());
                }
                if a[idx].is_null() {
                    let next_is_index = segs[i + 1].index.is_some();
                    a[idx] = if next_is_index {
                        Value::Array(vec![])
                    } else {
                        Value::Object(Map::new())
                    };
                }
                cur = &mut a[idx];
            }
            other => {
                return Err(format!(
                    "cannot traverse scalar {} at segment '{}'",
                    type_name(other),
                    seg.key
                ))
            }
        }
    }
    unreachable!("loop returns on last segment")
}

/// Remove the value at `path`. Returns the removed value if it existed.
pub fn remove_path(doc: &mut Value, path: &str) -> Option<Value> {
    let segs: Vec<&str> = path_segments(path).collect();
    let (last, parents) = segs.split_last()?;
    let mut cur = doc;
    for seg in parents {
        match cur {
            Value::Object(m) => cur = m.get_mut(seg)?,
            Value::Array(a) => {
                let idx: usize = seg.parse().ok()?;
                cur = a.get_mut(idx)?;
            }
            _ => return None,
        }
    }
    match cur {
        Value::Object(m) => m.remove(last),
        Value::Array(a) => {
            // MongoDB $unset on an array element nulls it rather than shifting.
            let idx: usize = last.parse().ok()?;
            let slot = a.get_mut(idx)?;
            Some(std::mem::replace(slot, Value::Null))
        }
        _ => None,
    }
}

/// MongoDB-style type precedence used when ordering values of mixed type.
pub fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Number(_) => 1,
        Value::String(_) => 2,
        Value::Object(_) => 3,
        Value::Array(_) => 4,
        Value::Bool(_) => 5,
    }
}

/// Human-readable type name, used by `$type` and error messages.
pub fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Number(n) => {
            if n.is_f64() {
                "double"
            } else {
                "int"
            }
        }
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

/// Total ordering over JSON values, compatible with BSON comparison:
/// first by type rank, then within a type by natural order.
pub fn cmp_values(a: &Value, b: &Value) -> Ordering {
    let (ra, rb) = (type_rank(a), type_rank(b));
    if ra != rb {
        return ra.cmp(&rb);
    }
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Number(x), Value::Number(y)) => cmp_numbers(x, y),
        (Value::String(x), Value::String(y)) => x.cmp(y),
        (Value::Array(x), Value::Array(y)) => {
            for (xi, yi) in x.iter().zip(y.iter()) {
                let c = cmp_values(xi, yi);
                if c != Ordering::Equal {
                    return c;
                }
            }
            x.len().cmp(&y.len())
        }
        (Value::Object(x), Value::Object(y)) => {
            // Compare key-value pairs in key order.
            let mut xk: Vec<_> = x.iter().collect();
            let mut yk: Vec<_> = y.iter().collect();
            xk.sort_by(|l, r| l.0.cmp(r.0));
            yk.sort_by(|l, r| l.0.cmp(r.0));
            for ((ka, va), (kb, vb)) in xk.iter().zip(yk.iter()) {
                let c = ka.cmp(kb);
                if c != Ordering::Equal {
                    return c;
                }
                let c = cmp_values(va, vb);
                if c != Ordering::Equal {
                    return c;
                }
            }
            xk.len().cmp(&yk.len())
        }
        _ => Ordering::Equal,
    }
}

/// Numbers by exact value, whatever their form: two integers as `i128`,
/// two doubles as doubles, an integer and a double by the real numbers
/// they spell (`1 == 1.0`, and 2^53 + 1 above the double 2^53), so
/// integers past 2^53 neither collapse nor tie with their `f64`
/// neighbours.
fn cmp_numbers(x: &Number, y: &Number) -> Ordering {
    match (int_of(x), int_of(y)) {
        (Some(a), Some(b)) => a.cmp(&b),
        (Some(a), None) => cmp_int_float(a, y.as_f64().unwrap_or(f64::NAN)),
        (None, Some(b)) => cmp_int_float(b, x.as_f64().unwrap_or(f64::NAN)).reverse(),
        (None, None) => {
            let fx = x.as_f64().unwrap_or(f64::NAN);
            let fy = y.as_f64().unwrap_or(f64::NAN);
            fx.partial_cmp(&fy).unwrap_or(Ordering::Equal)
        }
    }
}

fn int_of(n: &Number) -> Option<i128> {
    n.as_i64()
        .map(i128::from)
        .or_else(|| n.as_u64().map(i128::from))
}

/// An integer against a (finite) double: the double's integer part,
/// cast saturating (no integer reaches the saturated ends), decides,
/// and its fraction breaks a tie.
fn cmp_int_float(i: i128, f: f64) -> Ordering {
    let whole = f.trunc();
    i.cmp(&(whole as i128)).then(
        f.partial_cmp(&whole)
            .map_or(Ordering::Equal, Ordering::reverse),
    )
}

/// The `f64` that holds `n` exactly, if there is one: a double itself,
/// or an integer `f64` can spell without rounding (all of them up to
/// 2^53 in magnitude, and some above). A scan column stores it and a
/// filter's numeric bound is taken from it; a number without one
/// decides nothing there.
pub(crate) fn exact_f64(n: &Number) -> Option<f64> {
    match int_of(n) {
        Some(i) => {
            let f = i as f64;
            (f as i128 == i).then_some(f)
        }
        None => n.as_f64(),
    }
}

/// Equality that treats `1` and `1.0` as equal (numeric comparison), like
/// MongoDB's matcher, rather than `serde_json`'s structural equality.
pub fn values_equal(a: &Value, b: &Value) -> bool {
    cmp_values(a, b) == Ordering::Equal && type_rank(a) == type_rank(b)
}

/// Stable 64-bit hash (FNV-1a) that agrees with [`values_equal`]: two
/// values it calls equal hash alike, so `1` and `1.0` do. It walks the
/// value the way [`cmp_values`] compares it — type rank first, a number
/// by the bits of its nearest `f64` (`as_f64`, `-0.0` as `0.0`), a
/// string by its bytes, an array element by element, an object in
/// sorted-key order — and renders nothing. Numbers compare exactly, but
/// equal numbers round to the same `f64`, so they still hash alike;
/// integers past 2^53 that differ may share a hash, which is only a
/// collision. Change it together with [`cmp_values`].
pub(crate) fn hash_value(v: &Value) -> u64 {
    let mut h = 0xcbf29ce484222325;
    hash_walk(v, &mut h);
    h
}

fn hash_walk(v: &Value, h: &mut u64) {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x100000001b3);
        }
    }
    eat(h, &[type_rank(v)]);
    match v {
        Value::Null => {}
        Value::Bool(b) => eat(h, &[*b as u8]),
        Value::Number(n) => {
            let f = n.as_f64().unwrap_or(f64::NAN);
            // `-0.0 == 0.0`, but their bits differ.
            let f = if f == 0.0 { 0.0 } else { f };
            eat(h, &f.to_bits().to_le_bytes());
        }
        Value::String(s) => {
            eat(h, &(s.len() as u64).to_le_bytes());
            eat(h, s.as_bytes());
        }
        Value::Array(items) => {
            eat(h, &(items.len() as u64).to_le_bytes());
            for item in items {
                hash_walk(item, h);
            }
        }
        Value::Object(map) => {
            let mut fields: Vec<_> = map.iter().collect();
            fields.sort_by(|l, r| l.0.cmp(r.0));
            eat(h, &(fields.len() as u64).to_le_bytes());
            for (k, item) in fields {
                eat(h, &(k.len() as u64).to_le_bytes());
                eat(h, k.as_bytes());
                hash_walk(item, h);
            }
        }
    }
}

/// Wrapper giving [`Value`] a total order + `Eq`/`Ord` so it can key a
/// `BTreeMap` (used by secondary indexes and `distinct`).
#[derive(Debug, Clone)]
pub struct OrderedValue(pub Value);

impl PartialEq for OrderedValue {
    fn eq(&self, other: &Self) -> bool {
        cmp_values(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for OrderedValue {}
impl PartialOrd for OrderedValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedValue {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_values(&self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn get_simple_and_nested() {
        let doc = json!({"a": 1, "b": {"c": {"d": 2}}});
        assert_eq!(get_path(&doc, "a"), Some(&json!(1)));
        assert_eq!(get_path(&doc, "b.c.d"), Some(&json!(2)));
        assert_eq!(get_path(&doc, "b.x"), None);
        assert_eq!(get_path(&doc, "a.b"), None);
    }

    #[test]
    fn get_array_index() {
        let doc = json!({"xs": [10, 20, {"y": 30}]});
        assert_eq!(get_path(&doc, "xs.1"), Some(&json!(20)));
        assert_eq!(get_path(&doc, "xs.2.y"), Some(&json!(30)));
        assert_eq!(get_path(&doc, "xs.9"), None);
    }

    #[test]
    fn multi_traverses_arrays() {
        let doc = json!({"tags": [{"n": "a"}, {"n": "b"}]});
        let vs = get_path_multi(&doc, "tags.n");
        assert_eq!(vs, vec![&json!("a"), &json!("b")]);
    }

    #[test]
    fn multi_mixed_index_and_traversal() {
        let doc = json!({"xs": [[1, 2], [3]]});
        let vs = get_path_multi(&doc, "xs.0");
        // Explicit index hits the first sub-array.
        assert!(vs.contains(&&json!([1, 2])));
    }

    #[test]
    fn set_creates_intermediates() {
        let mut doc = json!({});
        set_path(&mut doc, "a.b.c", json!(5)).unwrap();
        assert_eq!(doc, json!({"a": {"b": {"c": 5}}}));
    }

    #[test]
    fn set_extends_array() {
        let mut doc = json!({"xs": [1]});
        set_path(&mut doc, "xs.3", json!(9)).unwrap();
        assert_eq!(doc, json!({"xs": [1, null, null, 9]}));
    }

    #[test]
    fn set_through_scalar_fails() {
        let mut doc = json!({"a": 1});
        assert!(set_path(&mut doc, "a.b", json!(2)).is_err());
    }

    #[test]
    fn remove_nested() {
        let mut doc = json!({"a": {"b": 1, "c": 2}});
        assert_eq!(remove_path(&mut doc, "a.b"), Some(json!(1)));
        assert_eq!(doc, json!({"a": {"c": 2}}));
        assert_eq!(remove_path(&mut doc, "a.zzz"), None);
    }

    #[test]
    fn remove_array_element_nulls() {
        let mut doc = json!({"xs": [1, 2, 3]});
        assert_eq!(remove_path(&mut doc, "xs.1"), Some(json!(2)));
        assert_eq!(doc, json!({"xs": [1, null, 3]}));
    }

    #[test]
    fn set_segs_matches_set_path() {
        for path in ["a.b.c", "xs.3", "xs.1.y", "top"] {
            let mut a = json!({"xs": [1]});
            let mut b = a.clone();
            let r1 = set_path(&mut a, path, json!(9));
            let r2 = set_path_segs(&mut b, &compile_path(path), json!(9));
            assert_eq!(r1, r2, "result mismatch for {path}");
            assert_eq!(a, b, "doc mismatch for {path}");
        }
        // Error paths agree too: scalar traversal and empty paths.
        let mut a = json!({"a": 1});
        let mut b = a.clone();
        assert!(set_path(&mut a, "a.b", json!(2)).is_err());
        assert!(set_path_segs(&mut b, &compile_path("a.b"), json!(2)).is_err());
        assert!(set_path_segs(&mut b, &compile_path(""), json!(2)).is_err());
    }

    #[test]
    fn ordering_type_precedence() {
        // null < number < string < object < array < bool
        let vs = [
            json!(null),
            json!(3),
            json!("x"),
            json!({"a": 1}),
            json!([1]),
            json!(true),
        ];
        for w in vs.windows(2) {
            assert_eq!(cmp_values(&w[0], &w[1]), Ordering::Less);
        }
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert!(values_equal(&json!(1), &json!(1.0)));
        assert!(!values_equal(&json!(1), &json!(2)));
    }

    /// Integers past 2^53 keep their exact order against each other and
    /// against the doubles beside them; `exact_f64` has an image only
    /// for a number a double spells without rounding.
    #[test]
    fn numbers_compare_exactly() {
        let two53 = 1u64 << 53;
        let ascending = [
            json!(i64::MIN),
            json!(-9007199254740993i64),
            json!(-9007199254740992.0),
            json!(-0.5),
            json!(0),
            json!(0.5),
            json!(two53 as f64),
            json!(two53 + 1),
            json!(two53 + 2),
            json!(two53 as f64 + 4.0),
            json!(u64::MAX),
            json!(18446744073709551616.0),
            json!(1e300),
        ];
        for (i, a) in ascending.iter().enumerate() {
            for (j, b) in ascending.iter().enumerate() {
                assert_eq!(cmp_values(a, b), i.cmp(&j), "{a} vs {b}");
            }
        }
        assert!(values_equal(&json!(two53), &json!(two53 as f64)));
        assert!(values_equal(&json!(-0.0), &json!(0)));
        let exact = |v: Value| match v {
            Value::Number(n) => exact_f64(&n),
            _ => unreachable!("a number row"),
        };
        assert_eq!(exact(json!(two53)), Some(two53 as f64));
        assert_eq!(exact(json!(two53 + 1)), None);
        assert_eq!(exact(json!(two53 + 2)), Some((two53 + 2) as f64));
        assert_eq!(exact(json!(u64::MAX)), None);
        assert_eq!(exact(json!(i64::MIN)), Some(i64::MIN as f64));
        assert_eq!(exact(json!(0.1)), Some(0.1));
    }

    /// Values `values_equal` calls equal hash alike, whatever number form
    /// or field order spells them.
    #[test]
    fn hash_agrees_with_values_equal() {
        let vs = [
            json!(1),
            json!(1.0),
            json!(0),
            json!(-0.0),
            json!(9007199254740993u64),
            json!(9007199254740992u64),
            json!(9007199254740992.0),
            json!(u64::MAX),
            json!(18446744073709551616.0),
            json!(i64::MIN),
            json!(-9223372036854775808.0),
            json!([9007199254740993u64]),
            json!([9007199254740992.0]),
            json!("1"),
            json!(null),
            json!(true),
            json!([1, 2.0]),
            json!([1.0, 2]),
            json!({"a": 1, "b": [0.0]}),
            json!({"b": [-0.0], "a": 1.0}),
            json!({"a": 1}),
        ];
        for a in &vs {
            for b in &vs {
                if values_equal(a, b) {
                    assert_eq!(hash_value(a), hash_value(b), "{a} vs {b}");
                }
            }
        }
        assert_ne!(hash_value(&json!(1)), hash_value(&json!("1")));
    }

    #[test]
    fn array_ordering_lexicographic() {
        assert_eq!(cmp_values(&json!([1, 2]), &json!([1, 3])), Ordering::Less);
        assert_eq!(cmp_values(&json!([1]), &json!([1, 0])), Ordering::Less);
    }
}
