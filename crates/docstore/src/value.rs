//! Dotted paths and BSON-like value ordering over [`serde_json::Value`].
//!
//! MongoDB addresses nested fields with dotted paths (`"spec.elements.0"`),
//! and sorts mixed-type values by a fixed type precedence. Both behaviours
//! are reproduced here because the rest of the system (query matcher,
//! update engine, indexes, cursors) is built on them. A path is split
//! once, into a [`Path`]; its methods are the store's only walks by path
//! (DESIGN §10, "One path").

use serde_json::{FieldName, Map, Number, Value};
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

/// MongoDB's own limit on padding an array: `$set` at an index refuses
/// to grow an array past this many elements (`kMaxPaddingAllowed`), so
/// one path cannot make the store backfill billions of nulls.
const MAX_BACKFILL: usize = 1_500_000;
const BACKFILL_REFUSED: &str = "can't backfill array to larger than 1500000 elements";

/// A dotted path (`"spec.elements.0"`), split once. The one form of a
/// path in the store: every read, traversal, write and removal by path
/// is a method here, and every holder of a path keeps one of these.
///
/// Empty segments are dropped (`".a..b"` is `a.b`), and a segment that
/// parses as a `usize` may also index an array; against an object it is
/// a key like any other.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// The path as written, for names and messages.
    raw: String,
    segs: Vec<PathSeg>,
}

/// One segment of a [`Path`]: the key, and its numeric parse.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PathSeg {
    /// The segment's field name (`"elements"` in `"spec.elements.0"`),
    /// resolved once, so a walk finds it in a document by address.
    pub(crate) key: FieldName,
    /// `Some(n)` when the segment is a valid array index.
    pub(crate) index: Option<usize>,
}

impl Path {
    /// Split `path` (see [`Path`]).
    pub fn new(path: &str) -> Path {
        let segs = path.split('.').filter(|s| !s.is_empty());
        Path {
            raw: path.to_string(),
            segs: segs
                .map(|s| PathSeg {
                    key: FieldName::new(s),
                    index: s.parse().ok(),
                })
                .collect(),
        }
    }

    /// The path as written.
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    pub(crate) fn segs(&self) -> &[PathSeg] {
        &self.segs
    }

    /// The value at this path, read strictly: objects by key, arrays
    /// only by a numeric segment. A path with no segments names `doc`.
    pub fn get<'v>(&self, doc: &'v Value) -> Option<&'v Value> {
        self.segs.iter().try_fold(doc, child)
    }

    /// [`Path::get`], mutably.
    pub fn get_mut<'v>(&self, doc: &'v mut Value) -> Option<&'v mut Value> {
        self.segs.iter().try_fold(doc, child_mut)
    }

    /// Visit every value the path reaches, the way MongoDB's matcher
    /// walks it, until `pred` returns true; returns whether it did. An
    /// array is entered by a numeric segment as an index and, whatever
    /// the segment, through each of its *object* elements with the same
    /// remaining path (a nested array is not entered). A path that ends
    /// at an array visits the array itself. Nothing is allocated, and
    /// the values visited borrow from `doc`.
    pub fn any<'a, F: FnMut(&'a Value) -> bool>(&self, doc: &'a Value, pred: &mut F) -> bool {
        reach(&self.segs, doc, pred)
    }

    /// Set the value at this path, as `$set` does: a missing or `null`
    /// step becomes an array when the next segment is numeric and an
    /// object otherwise, and an array is padded with `null`s up to the
    /// index written — never past [`MAX_BACKFILL`] elements. Fails on an
    /// empty path, a step through a scalar, a non-numeric segment into
    /// an array and a padding past the limit, and then has made nothing.
    pub fn set(&self, doc: &mut Value, value: Value) -> Result<(), String> {
        // Only the limit refuses a step after one that made something (a
        // key, a container, padding), so it is checked first: an index
        // past it must read an object's key or an element already there.
        for (k, seg) in self.segs.iter().enumerate() {
            let Some(idx) = seg.index.filter(|&idx| idx >= MAX_BACKFILL) else {
                continue;
            };
            match self.segs.iter().take(k).try_fold(&*doc, child) {
                Some(Value::Object(_)) => {}
                Some(Value::Array(a)) if idx < a.len() => {}
                _ => return Err(BACKFILL_REFUSED.into()),
            }
        }
        let (last, parents) = self.segs.split_last().ok_or("empty path")?;
        let mut cur = doc;
        for (seg, next) in parents.iter().zip(self.segs.iter().skip(1)) {
            cur = slot(cur, seg, Some(next))?;
        }
        *slot(cur, last, None)? = value;
        Ok(())
    }

    /// Remove the value at this path (read strictly, as [`Path::get`]
    /// reads) and return it. An array element is nulled, not removed, as
    /// MongoDB's `$unset` does, so the elements after it keep their
    /// indices.
    pub fn remove(&self, doc: &mut Value) -> Option<Value> {
        let (last, parents) = self.segs.split_last()?;
        match parents.iter().try_fold(doc, child_mut)? {
            Value::Object(m) => m.remove(last.key.as_str()),
            Value::Array(a) => a.get_mut(last.index?).map(std::mem::take),
            _ => None,
        }
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.raw)
    }
}

/// One strict step of [`Path::get`].
fn child<'v>(cur: &'v Value, seg: &PathSeg) -> Option<&'v Value> {
    match cur {
        Value::Object(m) => m.get_field(&seg.key),
        Value::Array(a) => a.get(seg.index?),
        _ => None,
    }
}

/// One strict step of [`Path::get_mut`].
fn child_mut<'v>(cur: &'v mut Value, seg: &PathSeg) -> Option<&'v mut Value> {
    match cur {
        Value::Object(m) => m.get_mut(seg.key.as_str()),
        Value::Array(a) => a.get_mut(seg.index?),
        _ => None,
    }
}

/// The walk of [`Path::any`].
fn reach<'a, F: FnMut(&'a Value) -> bool>(segs: &[PathSeg], cur: &'a Value, pred: &mut F) -> bool {
    let Some((seg, rest)) = segs.split_first() else {
        return pred(cur);
    };
    match cur {
        Value::Object(m) => m.get_field(&seg.key).is_some_and(|v| reach(rest, v, pred)),
        Value::Array(a) => {
            seg.index
                .and_then(|idx| a.get(idx))
                .is_some_and(|v| reach(rest, v, pred))
                || a.iter()
                    .filter(|v| v.is_object())
                    .any(|v| reach(segs, v, pred))
        }
        _ => false,
    }
}

/// One step of [`Path::set`]: the slot `seg` names in `at`, made if it
/// is missing — a key added as `null`, an array padded with `null`s —
/// and, when a `next` segment follows, made the container it needs if
/// it holds `null`.
// mp-lint: allow(H002, H003) — `$set` and an unwound or index-projected copy build their missing containers here; the format! calls are error paths.
fn slot<'v>(
    at: &'v mut Value,
    seg: &PathSeg,
    next: Option<&PathSeg>,
) -> Result<&'v mut Value, String> {
    let slot = match at {
        Value::Object(m) => {
            if m.get_field(&seg.key).is_none() {
                m.insert_field(&seg.key, Value::Null);
            }
            m.get_mut(seg.key.as_str())
        }
        Value::Array(a) => {
            let idx = seg
                .index
                .ok_or_else(|| format!("cannot index array with '{}'", seg.key.as_str()))?;
            if a.len() <= idx {
                a.resize(idx + 1, Value::Null);
            }
            a.get_mut(idx)
        }
        other => {
            return Err(format!(
                "cannot traverse scalar {} at segment '{}'",
                type_name(other),
                seg.key.as_str()
            ))
        }
    };
    // The slot was made above if it was missing; `None` cannot happen.
    let slot = slot.ok_or_else(|| format!("no slot at segment '{}'", seg.key.as_str()))?;
    match next {
        Some(next) if slot.is_null() => {
            *slot = match next.index {
                Some(_) => Value::Array(Vec::new()),
                None => Value::Object(Map::new()),
            }
        }
        _ => {}
    }
    Ok(slot)
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
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Number(x), Value::Number(y)) => cmp_numbers(x, y),
        (Value::String(x), Value::String(y)) => x.cmp(y),
        (Value::Array(x), Value::Array(y)) => (x.iter().zip(y))
            .fold(Ordering::Equal, |o, (a, b)| {
                o.then_with(|| cmp_values(a, b))
            })
            .then(x.len().cmp(&y.len())),
        (Value::Object(x), Value::Object(y)) => {
            let (x, y) = (sorted_fields(x), sorted_fields(y));
            (x.iter().zip(&y))
                .fold(Ordering::Equal, |o, ((ka, va), (kb, vb))| {
                    o.then(ka.cmp(kb)).then_with(|| cmp_values(va, vb))
                })
                .then(x.len().cmp(&y.len()))
        }
        _ => Ordering::Equal,
    }
}

/// An object's fields in key order: how [`cmp_values`] and the key
/// encoding read an object.
pub(crate) fn sorted_fields(m: &Map<String, Value>) -> Vec<(&String, &Value)> {
    let mut fields: Vec<_> = m.iter().collect();
    fields.sort_unstable_by(|l, r| l.0.cmp(r.0));
    fields
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

pub(crate) fn int_of(n: &Number) -> Option<i128> {
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
    cmp_values(a, b).is_eq()
}

/// Stable 64-bit hash (FNV-1a) of `v`'s key encoding
/// ([`key::encode`](crate::key::encode)), streamed: values
/// [`values_equal`] calls equal hash alike (`1` and `1.0` do), and
/// distinct numbers have distinct bytes, integers past 2^53 included.
/// Nothing is allocated but an object's list of fields in key order.
pub(crate) fn hash_value(v: &Value) -> u64 {
    let mut h = 0xcbf29ce484222325;
    crate::key::encode(v, &mut |part| {
        for &b in part {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    });
    h
}

/// Wrapper giving [`Value`] [`cmp_values`]' total order + `Eq`/`Ord`,
/// for the maps that hand their keys back as values: `distinct`,
/// `$group` and MapReduce's groups. What only finds its key — the `_id`
/// map, an index — keys by the bytes [`key::encode`](crate::key::encode)
/// writes instead.
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
pub(crate) mod tests {
    use super::*;
    use serde_json::json;

    fn get<'v>(doc: &'v Value, path: &str) -> Option<&'v Value> {
        Path::new(path).get(doc)
    }

    /// Every value `Path::any` visits, in visit order.
    fn reached<'v>(doc: &'v Value, path: &str) -> Vec<&'v Value> {
        let mut out = Vec::new();
        Path::new(path).any(doc, &mut |v| {
            out.push(v);
            false
        });
        out
    }

    fn set(doc: &mut Value, path: &str, v: Value) -> Result<(), String> {
        Path::new(path).set(doc, v)
    }

    fn remove(doc: &mut Value, path: &str) -> Option<Value> {
        Path::new(path).remove(doc)
    }

    #[test]
    fn get_simple_and_nested() {
        let doc = json!({"a": 1, "b": {"c": {"d": 2}}});
        assert_eq!(get(&doc, "a"), Some(&json!(1)));
        assert_eq!(get(&doc, "b.c.d"), Some(&json!(2)));
        assert_eq!(get(&doc, "b.x"), None);
        assert_eq!(get(&doc, "a.b"), None);
    }

    #[test]
    fn get_array_index() {
        let doc = json!({"xs": [10, 20, {"y": 30}]});
        assert_eq!(get(&doc, "xs.1"), Some(&json!(20)));
        assert_eq!(get(&doc, "xs.2.y"), Some(&json!(30)));
        assert_eq!(get(&doc, "xs.9"), None);
    }

    #[test]
    fn multi_traverses_arrays() {
        let doc = json!({"tags": [{"n": "a"}, {"n": "b"}]});
        let vs = reached(&doc, "tags.n");
        assert_eq!(vs, vec![&json!("a"), &json!("b")]);
    }

    #[test]
    fn multi_mixed_index_and_traversal() {
        let doc = json!({"xs": [[1, 2], [3]]});
        let vs = reached(&doc, "xs.0");
        // Explicit index hits the first sub-array.
        assert!(vs.contains(&&json!([1, 2])));
    }

    #[test]
    fn set_creates_intermediates() {
        let mut doc = json!({});
        set(&mut doc, "a.b.c", json!(5)).unwrap();
        assert_eq!(doc, json!({"a": {"b": {"c": 5}}}));
        for (path, want) in [
            ("a.b.c", json!({"xs": [1], "a": {"b": {"c": 9}}})),
            ("xs.1.y", json!({"xs": [1, {"y": 9}]})),
            ("top", json!({"xs": [1], "top": 9})),
        ] {
            let mut doc = json!({"xs": [1]});
            set(&mut doc, path, json!(9)).unwrap();
            assert_eq!(doc, want, "{path}");
        }
    }

    #[test]
    fn set_extends_array() {
        let mut doc = json!({"xs": [1]});
        set(&mut doc, "xs.3", json!(9)).unwrap();
        assert_eq!(doc, json!({"xs": [1, null, null, 9]}));
    }

    #[test]
    fn set_through_scalar_fails() {
        let mut doc = json!({"a": 1});
        assert!(set(&mut doc, "a.b", json!(2)).is_err());
        // An empty path names no field to write.
        assert!(set(&mut doc, "", json!(2)).is_err());
        assert_eq!(doc, json!({"a": 1}));
    }

    #[test]
    fn remove_nested() {
        let mut doc = json!({"a": {"b": 1, "c": 2}});
        assert_eq!(remove(&mut doc, "a.b"), Some(json!(1)));
        assert_eq!(doc, json!({"a": {"c": 2}}));
        assert_eq!(remove(&mut doc, "a.zzz"), None);
    }

    #[test]
    fn remove_array_element_nulls() {
        let mut doc = json!({"xs": [1, 2, 3]});
        assert_eq!(remove(&mut doc, "xs.1"), Some(json!(2)));
        assert_eq!(doc, json!({"xs": [1, null, 3]}));
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

    /// Numbers at the edges of exactness, `-0.0`, and arrays and objects
    /// of them: what `hash_value` and the key encoding's properties
    /// (`key::tests`) are checked over.
    pub(crate) fn hash_table() -> Vec<Value> {
        vec![
            json!(1),
            json!(1.0),
            json!(0),
            json!(-0.0),
            json!(9007199254740993u64),
            json!(9007199254740992u64),
            json!(9007199254740992.0),
            json!(u64::MAX),
            json!(u64::MAX - 1),
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
        ]
    }

    /// Values `values_equal` calls equal hash alike, whatever number form
    /// or field order spells them, and distinct integers past 2^53 hash
    /// apart.
    #[test]
    fn hash_agrees_with_values_equal() {
        let vs = hash_table();
        for a in &vs {
            for b in &vs {
                if values_equal(a, b) {
                    assert_eq!(hash_value(a), hash_value(b), "{a} vs {b}");
                }
            }
        }
        assert_ne!(hash_value(&json!(1)), hash_value(&json!("1")));
        let two53 = 1u64 << 53;
        assert_ne!(hash_value(&json!(two53)), hash_value(&json!(two53 + 1)));
        assert_ne!(
            hash_value(&json!(u64::MAX)),
            hash_value(&json!(u64::MAX - 1))
        );
    }

    #[test]
    fn array_ordering_lexicographic() {
        assert_eq!(cmp_values(&json!([1, 2]), &json!([1, 3])), Ordering::Less);
        assert_eq!(cmp_values(&json!([1]), &json!([1, 0])), Ordering::Less);
    }
}
