//! A test-only model of the document store's query semantics: the
//! oracle of the store's one matcher, one sort comparator and one
//! projection. It is written from MongoDB's documented semantics and
//! depends on `serde_json` only, so it shares no code with what it
//! checks: a bug in the store's value order cannot hide in the oracle.
//!
//! Where the store departs from MongoDB on purpose, the model departs the
//! same way, under the name DESIGN §10 gives the departure ([`DEPARTURES`];
//! a comment marks each where it is implemented). Every function here has
//! a name no product function has, so no analysis that resolves calls by
//! name can tie a product call to model code.

use serde_json::{Map, Number, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;

/// The store's deliberate departures from MongoDB, by the names DESIGN
/// §10 gives them and says what each means.
pub const DEPARTURES: &[&str] = &[
    "sorted-key-objects",
    "null-is-not-missing",
    "nested-arrays-closed",
    "all-within-one-value",
    "whole-value-operators",
    "strict-sort-keys",
    "indexed-projection",
    "backfill-limit",
];

/// One sort key: a dotted path, and whether it sorts descending.
pub type ModelSortKey = (String, bool);

/// A find's sort, skip, limit and projection, as plain data.
#[derive(Debug, Clone, Default)]
pub struct ModelOptions {
    pub sort: Vec<ModelSortKey>,
    pub skip: usize,
    pub limit: Option<usize>,
    /// Paths to keep; `_id` is always kept.
    pub projection: Option<Vec<String>>,
}

/// A JSON number as the real number it spells.
#[derive(Debug, Clone, Copy)]
enum ModelNum {
    Int(i128),
    Float(f64),
}

fn model_num(n: &Number) -> ModelNum {
    match (n.as_i64(), n.as_u64()) {
        (Some(i), _) => ModelNum::Int(i128::from(i)),
        (None, Some(u)) => ModelNum::Int(i128::from(u)),
        (None, None) => ModelNum::Float(n.as_f64().unwrap_or(f64::NAN)),
    }
}

/// Numbers compare by exact value, whatever their form: `1 == 1.0`, and
/// 2^53 + 1 lies between the doubles 2^53 and 2^53 + 2.
fn model_num_order(a: ModelNum, b: ModelNum) -> Ordering {
    match (a, b) {
        (ModelNum::Int(x), ModelNum::Int(y)) => x.cmp(&y),
        (ModelNum::Float(x), ModelNum::Float(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
        (ModelNum::Int(i), ModelNum::Float(f)) => model_int_vs_float(i, f),
        (ModelNum::Float(f), ModelNum::Int(i)) => model_int_vs_float(i, f).reverse(),
    }
}

/// An integer against a double. JSON integers lie in [-2^63, 2^64), so a
/// double outside that range is decided by its sign; inside it, the
/// double's floor converts to `i128` without loss, and a fraction above
/// the floor breaks a tie.
fn model_int_vs_float(i: i128, f: f64) -> Ordering {
    const TWO_TO_64: f64 = 18_446_744_073_709_551_616.0;
    if f.abs() >= TWO_TO_64 {
        return 0.0.partial_cmp(&f).unwrap_or(Ordering::Equal);
    }
    let floor = f.floor();
    match i.cmp(&(floor as i128)) {
        Ordering::Equal if f > floor => Ordering::Less,
        other => other,
    }
}

/// MongoDB's type brackets in sort order: null, numbers, strings,
/// objects, arrays, booleans. Values of different brackets never compare
/// equal, and a range operator only meets values of its own bracket.
fn model_bracket(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Number(_) => 1,
        Value::String(_) => 2,
        Value::Object(_) => 3,
        Value::Array(_) => 4,
        Value::Bool(_) => 5,
    }
}

/// The total order of values: bracket first, then numbers by exact
/// value, strings by their UTF-8 bytes, `false < true`, arrays element by
/// element and then by length, objects field by field.
pub fn model_order(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => model_num_order(model_num(x), model_num(y)),
        (Value::String(x), Value::String(y)) => x.as_bytes().cmp(y.as_bytes()),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Array(x), Value::Array(y)) => model_pairwise(
            x.iter().zip(y).map(|(l, r)| model_order(l, r)),
            x.len().cmp(&y.len()),
        ),
        (Value::Object(x), Value::Object(y)) => {
            // Departure `sorted-key-objects`: MongoDB compares fields in
            // stored order; the store sorts them by key first.
            fn model_sorted_fields(m: &Map<String, Value>) -> Vec<(&String, &Value)> {
                let mut fields: Vec<(&String, &Value)> = m.iter().collect();
                fields.sort_by(|l, r| l.0.cmp(r.0));
                fields
            }
            let (xs, ys) = (model_sorted_fields(x), model_sorted_fields(y));
            let fields = xs.iter().zip(&ys);
            model_pairwise(
                fields.map(|((kx, vx), (ky, vy))| kx.cmp(ky).then_with(|| model_order(vx, vy))),
                xs.len().cmp(&ys.len()),
            )
        }
        _ => model_bracket(a).cmp(&model_bracket(b)),
    }
}

/// The first unequal step, else `tail`.
fn model_pairwise(mut steps: impl Iterator<Item = Ordering>, tail: Ordering) -> Ordering {
    steps.find(|o| o.is_ne()).unwrap_or(tail)
}

fn model_same(a: &Value, b: &Value) -> bool {
    model_order(a, b) == Ordering::Equal
}

/// A dotted path's segments: split on `.`, empty segments dropped.
pub fn model_segments(path: &str) -> Vec<&str> {
    path.split('.').filter(|s| !s.is_empty()).collect()
}

/// Every value a dotted path reaches, as MongoDB's matcher walks it: an
/// object by field name; an array by a numeric segment as an index and,
/// whatever the segment, through each of its object elements with the
/// same remaining path. A path that ends at an array reaches the array
/// itself; the operators decide how to open it.
pub fn model_reach<'a>(v: &'a Value, segs: &[&str], out: &mut Vec<&'a Value>) {
    let Some((seg, rest)) = segs.split_first() else {
        out.push(v);
        return;
    };
    match v {
        Value::Object(m) => {
            if let Some(child) = m.get(seg) {
                model_reach(child, rest, out);
            }
        }
        Value::Array(items) => {
            if let Some(child) = seg.parse::<usize>().ok().and_then(|i| items.get(i)) {
                model_reach(child, rest, out);
            }
            for item in items.iter().filter(|e| e.is_object()) {
                model_reach(item, segs, out);
            }
        }
        _ => {}
    }
}

/// The one value a path names when read strictly: object fields by name,
/// array elements by index, no traversal.
pub fn model_lookup<'a>(v: &'a Value, path: &str) -> Option<&'a Value> {
    model_segments(path)
        .into_iter()
        .try_fold(v, |cur, seg| match cur {
            Value::Object(m) => m.get(seg),
            Value::Array(items) => items.get(seg.parse::<usize>().ok()?),
            _ => None,
        })
}

/// Does `doc` satisfy the filter document `filter`? Every top-level
/// clause must hold: `$and` all of its filters, `$or` one, `$nor` none,
/// and a path its condition over the values the path reaches. The filter
/// must be one the store parses.
pub fn model_match(filter: &Value, doc: &Value) -> bool {
    let Value::Object(clauses) = filter else {
        panic!("mp-model: a filter is an object, got {filter}");
    };
    clauses.iter().all(|(key, arg)| {
        let mut subs = arg.as_array().into_iter().flatten();
        match key.as_str() {
            "$and" => subs.all(|f| model_match(f, doc)),
            "$or" => subs.any(|f| model_match(f, doc)),
            "$nor" => !subs.any(|f| model_match(f, doc)),
            path => {
                let mut vals = Vec::new();
                model_reach(doc, &model_segments(path), &mut vals);
                model_holds(&vals, arg)
            }
        }
    })
}

/// A field's condition: an operator document (its keys are `$`
/// operators) holds when each operator does; anything else is a literal
/// the field must equal.
fn model_holds(vals: &[&Value], cond: &Value) -> bool {
    match cond {
        Value::Object(ops) if ops.keys().any(|k| k.starts_with('$')) => {
            ops.iter().all(|(op, arg)| model_operator(vals, op, arg))
        }
        literal => model_equals(vals, literal),
    }
}

fn model_operator(vals: &[&Value], op: &str, arg: &Value) -> bool {
    let list = arg.as_array().map(Vec::as_slice).unwrap_or_default();
    match op {
        "$eq" => model_equals(vals, arg),
        "$ne" => !model_equals(vals, arg),
        "$gt" => model_compares(vals, arg, Ordering::is_gt),
        "$gte" => model_compares(vals, arg, Ordering::is_ge),
        "$lt" => model_compares(vals, arg, Ordering::is_lt),
        "$lte" => model_compares(vals, arg, Ordering::is_le),
        "$in" => list.iter().any(|x| model_equals(vals, x)),
        "$nin" => !list.iter().any(|x| model_equals(vals, x)),
        "$all" => model_all(vals, list),
        "$size" => vals.iter().any(|v| {
            v.as_array()
                .is_some_and(|a| Some(a.len() as u64) == arg.as_u64())
        }),
        "$exists" => vals.is_empty() != (arg == &Value::Bool(true)),
        "$elemMatch" => vals.iter().any(|v| {
            let items = v.as_array().into_iter().flatten();
            items.into_iter().any(|e| model_match(arg, e))
        }),
        "$not" => !model_holds(vals, arg),
        // Departure `whole-value-operators` from here on: MongoDB also
        // tests each element of a reached array.
        "$type" => vals
            .iter()
            .any(|v| Some(model_type_name(v)) == arg.as_str()),
        "$regex" => {
            let pattern = arg.as_str().unwrap_or_default();
            match pattern.strip_prefix('^') {
                Some(prefix) => model_text(vals, |s| s.starts_with(prefix)),
                None => model_text(vals, |s| s.contains(pattern)),
            }
        }
        "$contains" => model_text(vals, |s| s.contains(arg.as_str().unwrap_or_default())),
        "$mod" => model_modulo(vals, list),
        other => panic!("mp-model: `{other}` is not an operator the store parses"),
    }
}

/// Equality on a path: some reached value equals `x`, or is an array one
/// of whose elements does.
fn model_equals(vals: &[&Value], x: &Value) -> bool {
    // Departure `null-is-not-missing`: in MongoDB a null `x` also matches
    // when nothing is reached; here `vals` must hold a null.
    vals.iter()
        .any(|v| model_same(v, x) || model_opened(v).any(|e| model_same(e, x)))
}

/// The elements of a reached array an operator compares one by one.
/// Departure `nested-arrays-closed`: a nested array is not one of them,
/// so an array operand meets only the whole stored array (MongoDB also
/// compares it with each nested array).
fn model_opened(v: &Value) -> impl Iterator<Item = &Value> {
    v.as_array().into_iter().flatten().filter(|e| !e.is_array())
}

/// A range operator: some reached value, or opened element, lies in the
/// operand's bracket and orders against it as `want` asks.
fn model_compares(vals: &[&Value], x: &Value, want: fn(Ordering) -> bool) -> bool {
    let hit = |v: &Value| model_bracket(v) == model_bracket(x) && want(model_order(v, x));
    vals.iter().any(|v| hit(v) || model_opened(v).any(hit))
}

/// Departure `all-within-one-value`: MongoDB reads `$all: [a, b]` as
/// `{$and: [{f: a}, {f: b}]}` over everything the path reaches and
/// matches nothing with an empty list; the store asks one reached value
/// to hold every operand.
fn model_all(vals: &[&Value], xs: &[Value]) -> bool {
    vals.iter().any(|v| match v {
        Value::Array(items) => xs.iter().all(|x| items.iter().any(|e| model_same(e, x))),
        scalar => matches!(xs, [x] if model_same(scalar, x)),
    })
}

fn model_type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Number(n) if n.is_f64() => "double",
        Value::Number(_) => "int",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

fn model_text(vals: &[&Value], test: impl Fn(&str) -> bool) -> bool {
    vals.iter().any(|v| v.as_str().is_some_and(&test))
}

fn model_modulo(vals: &[&Value], divisor_remainder: &[Value]) -> bool {
    let int = |i: usize| {
        divisor_remainder
            .get(i)
            .and_then(Value::as_i64)
            .map(i128::from)
    };
    let (Some(d), Some(r)) = (int(0), int(1)) else {
        return false;
    };
    vals.iter()
        .filter_map(|v| v.as_i64())
        .any(|x| i128::from(x).rem_euclid(d) == r.rem_euclid(d))
}

/// The order a sort spec puts two documents in, key by key.
pub fn model_cmp_docs(a: &Value, b: &Value, keys: &[ModelSortKey]) -> Ordering {
    // Departure `strict-sort-keys`: MongoDB reads a key through arrays
    // and sorts an array by its least (ascending) or greatest
    // (descending) element.
    let key = |doc, path| model_lookup(doc, path).unwrap_or(&Value::Null);
    let steps = keys.iter().map(|(path, descending)| {
        let (x, y) = if *descending { (b, a) } else { (a, b) };
        model_order(key(x, path), key(y, path))
    });
    model_pairwise(steps, Ordering::Equal)
}

/// Sort (stably: ties keep their input order), then skip, then limit.
pub fn model_window<D: Borrow<Value>>(mut docs: Vec<D>, opts: &ModelOptions) -> Vec<D> {
    docs.sort_by(|a, b| model_cmp_docs(a.borrow(), b.borrow(), &opts.sort));
    let kept = docs.into_iter().skip(opts.skip);
    kept.take(opts.limit.unwrap_or(usize::MAX)).collect()
}

/// `_id` and every listed path that resolves (read strictly), written in
/// that order into a new document as `$set` would write them; a write
/// that fails leaves the document as it was.
pub fn model_project(doc: &Value, paths: &[String]) -> Value {
    let mut out = Value::Object(Map::new());
    for path in std::iter::once("_id").chain(paths.iter().map(String::as_str)) {
        if let Some(v) = model_lookup(doc, path) {
            let mut placed = out.clone();
            if model_place(&mut placed, &model_segments(path), v.clone()) {
                out = placed;
            }
        }
    }
    out
}

/// The longest array a write pads to: MongoDB's `kMaxPaddingAllowed`.
const MODEL_MAX_PADDING: usize = 1_500_000;

/// Write `v` at `segs` under `at`, as `$set` writes, and say whether it
/// was written: a missing or null step becomes an array when the next
/// segment is an index and an object otherwise. A step through a scalar,
/// or by name into an array, fails. Departure `indexed-projection`:
/// MongoDB does not project by array index; here an array grows with
/// nulls up to the index written. Departure `backfill-limit`: so a
/// projection meets `$set`'s limit, and a write that would pad an array
/// past [`MODEL_MAX_PADDING`] elements fails.
fn model_place(at: &mut Value, segs: &[&str], v: Value) -> bool {
    let Some((seg, rest)) = segs.split_first() else {
        *at = v;
        return true;
    };
    let slot = match at {
        Value::Object(m) => {
            if m.get(seg).is_none() {
                m.insert(seg.to_string(), Value::Null);
            }
            m.get_mut(seg)
        }
        Value::Array(items) => {
            let Ok(i) = seg.parse::<usize>() else {
                return false;
            };
            if items.len() <= i && i >= MODEL_MAX_PADDING {
                return false;
            }
            if items.len() <= i {
                items.resize(i + 1, Value::Null);
            }
            items.get_mut(i)
        }
        _ => None,
    };
    let Some(slot) = slot else { return false };
    if slot.is_null() {
        *slot = match rest.first() {
            Some(next) if next.parse::<usize>().is_ok() => Value::Array(Vec::new()),
            _ => Value::Object(Map::new()),
        };
    }
    model_place(slot, rest, v)
}

/// A find over `docs` in store order: the matches, windowed, projected.
pub fn model_find(docs: &[Value], filter: &Value, opts: &ModelOptions) -> Vec<Value> {
    let hits: Vec<&Value> = docs.iter().filter(|d| model_match(filter, d)).collect();
    let project = |d: &Value| match &opts.projection {
        Some(paths) => model_project(d, paths),
        None => d.clone(),
    };
    model_window(hits, opts).into_iter().map(project).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    const TWO_53: u64 = 1 << 53;

    /// Values in ascending order, bracket by bracket; a row's neighbours
    /// in one inner list compare equal.
    fn ascending() -> Vec<Vec<Value>> {
        vec![
            vec![json!(null)],
            vec![json!(i64::MIN), json!(-9_223_372_036_854_775_808.0)],
            vec![json!(-(TWO_53 as i64) - 1)],
            vec![json!(-(TWO_53 as i64)), json!(-(TWO_53 as f64))],
            vec![json!(-1.5)],
            vec![json!(0), json!(0.0), json!(-0.0)],
            vec![json!(1), json!(1.0)],
            vec![json!(1.5)],
            vec![json!(TWO_53), json!(TWO_53 as f64)],
            vec![json!(TWO_53 + 1)],
            vec![json!(TWO_53 + 2), json!((TWO_53 + 2) as f64)],
            vec![json!(u64::MAX)],
            vec![json!(18_446_744_073_709_551_616.0)],
            vec![json!(1e300)],
            vec![json!("")],
            vec![json!("B")],
            vec![json!("a")],
            vec![json!("ab")],
            vec![json!({})],
            vec![json!({"a": 1}), json!({"a": 1.0})],
            vec![json!({"a": 1, "b": 2}), json!({"b": 2, "a": 1})],
            vec![json!({"b": 0})],
            vec![json!([])],
            vec![json!([1]), json!([1.0])],
            vec![json!([1, 2])],
            vec![json!([2])],
            vec![json!(false)],
            vec![json!(true)],
        ]
    }

    #[test]
    fn the_order_is_bracketed_and_numbers_are_exact() {
        let rows = ascending();
        for (i, row) in rows.iter().enumerate() {
            for (j, other) in rows.iter().enumerate() {
                for a in row {
                    for b in other {
                        assert_eq!(model_order(a, b), i.cmp(&j), "{a} vs {b}");
                    }
                }
            }
        }
    }

    /// Every departure is named once, and each is marked where the
    /// model implements it.
    #[test]
    fn every_departure_is_named_once_and_marked() {
        let mut names = DEPARTURES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DEPARTURES.len());
        let source = include_str!("lib.rs");
        for name in DEPARTURES {
            let mark = format!("Departure `{name}`");
            assert!(source.contains(&mark), "{name} is not marked");
        }
    }

    /// (filter, document, matches?) — MongoDB's answer unless the row
    /// names a departure.
    #[test]
    fn the_matcher_follows_the_table() {
        let big = TWO_53 + 1;
        let rows = [
            (json!({"a": 1}), json!({"a": 1.0}), true),
            (json!({"a": big}), json!({"a": TWO_53}), false),
            (json!({"a": TWO_53}), json!({"a": big}), false),
            (json!({"a": TWO_53 as f64}), json!({"a": TWO_53}), true),
            (json!({"a": {"$gt": TWO_53}}), json!({"a": big}), true),
            (
                json!({"a": {"$lt": big}}),
                json!({"a": TWO_53 as f64}),
                true,
            ),
            (
                json!({"a": {"$lt": TWO_53 as f64}}),
                json!({"a": big}),
                false,
            ),
            (
                json!({"a": {"$in": [big]}}),
                json!({"a": [TWO_53, 3]}),
                false,
            ),
            (json!({"a": {"$gt": 5}}), json!({"a": "9"}), false),
            (json!({"a": "x"}), json!({"a": ["y", "x"]}), true),
            (json!({"a": ["x"]}), json!({"a": ["x"]}), true),
            (json!({"a": {"$ne": "x"}}), json!({"a": ["y", "x"]}), false),
            (json!({"a": {"$ne": "x"}}), json!({}), true),
            (json!({"a.b": 2}), json!({"a": [{"b": 1}, {"b": 2}]}), true),
            (json!({"a.1": 2}), json!({"a": [1, 2]}), true),
            (json!({"a": {"$size": 2}}), json!({"a": [1, [2, 3]]}), true),
            (json!({"a": {"$exists": true}}), json!({"a": null}), true),
            (json!({"a": {"$exists": false}}), json!({"a": null}), false),
            (
                json!({"a": {"$all": ["x", "y"]}}),
                json!({"a": ["y", "z", "x"]}),
                true,
            ),
            (json!({"a": {"$type": "double"}}), json!({"a": 1.0}), true),
            (json!({"a": {"$not": {"$gt": 5}}}), json!({}), true),
            (json!({"a": {"$mod": [4, 0]}}), json!({"a": 8}), true),
            (json!({"a": {"$regex": "^Li"}}), json!({"a": "LiO"}), true),
            (
                json!({"a": {"$elemMatch": {"b": 1, "c": 2}}}),
                json!({"a": [{"b": 1}, {"b": 1, "c": 2}]}),
                true,
            ),
            (json!({"$or": [{"a": 1}, {"b": 1}]}), json!({"b": 1}), true),
            (json!({"$nor": [{"a": 1}]}), json!({"a": [1]}), false),
            (
                json!({"$and": [{"a": {"$gte": 1}}, {"a": {"$lt": 2}}]}),
                json!({"a": 1.5}),
                true,
            ),
            // sorted-key-objects
            (
                json!({"a": {"x": 1, "y": 2}}),
                json!({"a": {"y": 2, "x": 1}}),
                true,
            ),
            // null-is-not-missing
            (json!({"a": null}), json!({}), false),
            (json!({"a": {"$ne": null}}), json!({}), true),
            // nested-arrays-closed
            (json!({"a": [1, 2]}), json!({"a": [[1, 2], 3]}), false),
            // all-within-one-value
            (
                json!({"a.b": {"$all": [1, 2]}}),
                json!({"a": [{"b": 1}, {"b": 2}]}),
                false,
            ),
            (json!({"a": {"$all": []}}), json!({"a": []}), true),
            // whole-value-operators
            (
                json!({"a": {"$type": "string"}}),
                json!({"a": ["x"]}),
                false,
            ),
            (json!({"a": {"$mod": [4, 3]}}), json!({"a": -5}), true),
        ];
        for (filter, doc, want) in rows {
            assert_eq!(model_match(&filter, &doc), want, "{filter} on {doc}");
        }
    }

    #[test]
    fn sort_window_and_projection() {
        let docs = vec![
            json!({"_id": 1, "k": TWO_53 + 1}),
            json!({"_id": 2, "k": TWO_53 as f64}),
            json!({"_id": 3}),
            json!({"_id": 4, "k": "s"}),
            json!({"_id": 5, "k": TWO_53}),
        ];
        let opts = ModelOptions {
            sort: vec![("k".into(), true)],
            skip: 1,
            limit: Some(3),
            projection: Some(vec!["k".into()]),
        };
        let found = model_find(&docs, &json!({}), &opts);
        // Descending: "s", 2^53+1, then the two spellings of 2^53 in
        // store order, then the missing key.
        assert_eq!(
            found,
            [
                json!({"_id": 1, "k": TWO_53 + 1}),
                json!({"_id": 2, "k": TWO_53 as f64}),
                json!({"_id": 5, "k": TWO_53})
            ]
        );
        let doc = json!({"_id": 7, "xs": [10, {"y": 20}], "a": {"b": 1, "c": 2}});
        let paths = |ps: &[&str]| ps.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        assert_eq!(
            model_project(&doc, &paths(&["a.c", "xs.1.y", "zz"])).to_string(),
            r#"{"_id":7,"a":{"c":2},"xs":[null,{"y":20}]}"#
        );
        // Departure `backfill-limit`: the write would pad 2,000,001
        // elements, so it writes nothing, not even the array.
        let far = json!({"_id": 1, "a": {"2000000": 1}});
        assert_eq!(
            model_project(&far, &paths(&["a.2000000"])),
            json!({"_id": 1})
        );
    }
}
