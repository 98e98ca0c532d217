//! `json!` and the parser allocate every object at its final size, and
//! `Map` sizes itself from what it is built from.

use serde_json::{json, Map, Value};

fn object(v: &Value) -> &Map<String, Value> {
    v.as_object().expect("an object")
}

/// `capacity == len` for `v` and every object below it.
fn assert_exact(v: &Value) {
    match v {
        Value::Object(m) => {
            assert_eq!(m.capacity(), m.len(), "{v}");
            m.values().for_each(assert_exact);
        }
        Value::Array(items) => items.iter().for_each(assert_exact),
        _ => {}
    }
}

/// [`assert_exact`], and the same of every array: what the parser owes
/// a document that is about to become resident. (A string needs no
/// check: its text is inline or a `Box<str>`, exact by type.)
fn assert_exact_throughout(v: &Value) {
    assert_exact(v);
    match v {
        Value::Object(m) => m.values().for_each(assert_exact_throughout),
        Value::Array(items) => {
            assert_eq!(items.capacity(), items.len(), "{v}");
            items.iter().for_each(assert_exact_throughout);
        }
        _ => {}
    }
}

#[test]
fn parsed_documents_are_allocated_at_their_final_size() {
    // Nine fields (growth by doubling would leave sixteen slots), nested
    // objects and arrays closing inside one another, empty containers.
    let doc = json!({
        "_id": "mp-1", "formula": "Fe2O3", "chemsys": "Fe-O",
        "elements": ["Fe", "O", "a longer string than the small ones"],
        "nelements": 2, "nsites": 10, "density": 5.2,
        "spacegroup": {"symbol": "R-3c", "number": 167, "ops": [[1, 0], [0, 1], []]},
        "output": {"energy": -67.5, "steps": [{"e": -1.0, "f": [{}, {"g": null}]}, {}]},
    });
    for text in [doc.to_string(), serde_json::to_string_pretty(&doc).unwrap()] {
        let parsed = serde_json::from_str_value(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_string(), doc.to_string(), "entry order");
        assert_exact_throughout(&parsed);
    }
    let empty = serde_json::from_str_value("{}").unwrap();
    assert_eq!(object(&empty).capacity(), 0);
    assert_eq!(serde_json::from_str_value("[ ]").unwrap(), json!([]));

    // A repeated name keeps its first position and its last value, and
    // leaves no slot behind — also when it is spelled with an escape.
    let dup = serde_json::from_str_value(r#"{"a": 1, "b": {"x": 1, "x": 2}, "a": 3, "c": 4}"#);
    let dup = dup.unwrap();
    assert_eq!(dup.to_string(), r#"{"a":3,"b":{"x":2},"c":4}"#);
    assert_exact_throughout(&dup);

    // An error inside a container leaves nothing behind for the next
    // parse on this thread to pick up.
    assert!(serde_json::from_str_value(r#"{"a": [1, 2, {"b": 3}, oops]}"#).is_err());
    assert!(serde_json::from_str_value(r#"{"a": 1, "b" 2}"#).is_err());
    let after = serde_json::from_str_value(r#"{"k": [true]}"#).unwrap();
    assert_eq!(after, json!({"k": [true]}));
    assert_exact_throughout(&after);
}

#[test]
fn json_objects_are_allocated_at_their_final_size() {
    // Nine fields: doubling growth would leave sixteen slots.
    let doc = json!({
        "_id": "mp-1", "formula": "Fe2O3", "chemsys": "Fe-O",
        "elements": ["Fe", "O"], "nelements": 2, "nsites": 10, "density": 5.2,
        "spacegroup": {"symbol": "R-3c", "number": 167},
        "output": {"energy": -67.5, "band_gap": 2.0, "steps": [{"e": -1.0}, {}]},
    });
    assert_eq!(object(&doc).len(), 9);
    assert_exact(&doc);
    // A trailing comma, expression keys, null/array/object values.
    let key = String::from("k");
    let v = json!({ key.as_str(): null, "a": [1, {"b": 2,}], "c": {"d": {}}, });
    assert_eq!(object(&v).len(), 3);
    assert_exact(&v);
    // An empty object allocates nothing.
    assert_eq!(object(&json!({})).capacity(), 0);
}

#[test]
fn colons_and_commas_inside_a_value_never_break_the_count() {
    // `::` is its own token and a comma inside a turbofish belongs to
    // the expression: neither is counted.
    let v = json!({
        "n": std::collections::HashMap::<String, i32>::new().len(),
        "s": [1, 2, 3].iter().map(|x: &i32| x * 2).sum::<i32>(),
        "t": <u8 as Default>::default(),
    });
    assert_eq!(v, json!({"n": 0, "s": 12, "t": 0}));
    assert_exact(&v);
    // A bare `:` at the top level of a value (a labeled block, a typed
    // closure parameter) is counted as an entry: a spare slot, the same
    // value.
    let n = v["s"].as_i64();
    let v = json!({
        "a": 'found: { if n == Some(12) { break 'found 7; } 0 },
        "b": 2,
    });
    assert_eq!(v, json!({"a": 7, "b": 2}));
    let m = object(&v);
    assert_eq!(m.len(), 2);
    assert!(
        m.capacity() >= m.len() && m.capacity() <= 3,
        "{}",
        m.capacity()
    );
}

#[test]
fn maps_reserve_from_the_size_hint() {
    let pairs = |n: usize| (0..n).map(|i| (format!("k{i}"), json!(i)));
    let m: Map<String, Value> = pairs(5).collect();
    assert_eq!((m.len(), m.capacity()), (5, 5));
    let mut m = Map::new();
    m.extend(pairs(7));
    assert_eq!(m.len(), 7);
    assert!(m.capacity() >= 7);
    // Overwriting the same keys reserves for half of them at most.
    m.extend(pairs(7));
    assert_eq!(m.len(), 7);
    assert!(m.capacity() <= 14, "{}", m.capacity());
}

#[test]
fn borrowing_iteration_is_a_concrete_sized_iterator() {
    let v = json!({"a": 1, "b": 2, "c": 3});
    let m = object(&v);
    let mut it: serde_json::map::Iter<'_> = m.into_iter();
    assert_eq!(it.size_hint(), (3, Some(3)));
    assert_eq!(it.next(), Some((&"a".to_string(), &json!(1))));
    assert_eq!(it.size_hint(), (2, Some(2)));
    let keys: Vec<&String> = m.iter().map(|(k, _)| k).collect();
    assert_eq!(keys, ["a", "b", "c"]);
    for (k, v) in m {
        assert_eq!(m.get(k), Some(v));
    }
}
