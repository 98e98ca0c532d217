//! Property tests pinning `value::Path`, the store's one walk by dotted
//! path, to `mp-model`'s own walk, which shares no code with it.
//!
//! Documents nest objects, arrays of objects and arrays of arrays, and
//! some object keys look like numbers; paths have leading, trailing and
//! doubled dots and indices past the end of an array. For each pair:
//!
//! * `Path::get` is the model's strict lookup;
//! * the values `Path::any` visits are, as a multiset, the values the
//!   model reaches — the same values in the document, compared by
//!   address;
//! * after a `set(v)` that succeeds, `get` returns `v`;
//! * `remove` returns what `get` read, and afterwards `get` is `None`,
//!   or `null` when the last container is an array (`$unset` nulls an
//!   element instead of shifting the rest).

use mp_docstore::value::Path;
use mp_model::{model_lookup, model_reach, model_segments};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use proptest::test_runner::ProptestConfig;
use serde_json::{json, Map, Value};

fn leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        (-5i64..5).prop_map(Value::from),
        "[a-c]{0,2}".prop_map(Value::from),
    ]
}

/// An object over the keys the paths use, two of them numeric-looking.
fn object_of(inner: BoxedStrategy<Value>) -> impl Strategy<Value = Value> {
    let key = prop_oneof![Just("a"), Just("b"), Just("0"), Just("1")];
    prop::collection::vec((key, inner), 0..4).prop_map(|pairs| {
        let mut m = Map::new();
        for (k, v) in pairs {
            m.insert(k.to_string(), v);
        }
        Value::Object(m)
    })
}

/// A value `depth` levels deep at most: a leaf, an object, an array of
/// anything (nested arrays included) or an array of objects.
fn value(depth: u32) -> BoxedStrategy<Value> {
    if depth == 0 {
        return leaf().boxed();
    }
    let inner = value(depth - 1);
    prop_oneof![
        leaf(),
        object_of(inner.clone()),
        prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Array),
        prop::collection::vec(object_of(inner), 0..3).prop_map(Value::Array),
    ]
    .boxed()
}

fn document() -> impl Strategy<Value = Value> {
    object_of(value(3))
}

/// One to four segments — keys, in-range and past-the-end indices —
/// joined by one or two dots, with a leading or trailing dot sometimes.
fn path() -> impl Strategy<Value = String> {
    let seg = prop_oneof![
        Just("a"),
        Just("b"),
        Just("0"),
        Just("1"),
        Just("2"),
        Just("7"),
    ];
    let sep = prop_oneof![Just("."), Just("."), Just("..")];
    let edge = || prop_oneof![Just(""), Just(""), Just(".")];
    (prop::collection::vec((sep, seg), 1..5), edge(), edge()).prop_map(|(segs, lead, trail)| {
        let mut out = lead.to_string();
        for (i, (sep, seg)) in segs.into_iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            out.push_str(seg);
        }
        out + trail
    })
}

/// The addresses of `values`, sorted: a multiset of places in one
/// document.
fn places(values: &[&Value]) -> Vec<*const Value> {
    let mut out: Vec<*const Value> = values.iter().map(|v| *v as *const Value).collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn get_is_the_models_strict_lookup(doc in document(), raw in path()) {
        let path = Path::new(&raw);
        let place = |v: &Value| v as *const Value;
        prop_assert_eq!(path.get(&doc).map(place), model_lookup(&doc, &raw).map(place));
    }

    #[test]
    fn any_visits_what_the_model_reaches(doc in document(), raw in path()) {
        let path = Path::new(&raw);
        let mut visited = Vec::new();
        let stopped = path.any(&doc, &mut |v| {
            visited.push(v);
            false
        });
        let mut reached = Vec::new();
        model_reach(&doc, &model_segments(&raw), &mut reached);
        prop_assert!(!stopped);
        prop_assert_eq!(places(&visited), places(&reached));
        // The walk stops at the first value the predicate takes.
        let mut seen = 0;
        let found = path.any(&doc, &mut |_| {
            seen += 1;
            true
        });
        prop_assert_eq!((found, seen), (!reached.is_empty(), usize::from(!reached.is_empty())));
    }

    #[test]
    fn get_reads_what_set_wrote(doc in document(), raw in path(), v in leaf()) {
        let path = Path::new(&raw);
        let mut doc = doc;
        if path.set(&mut doc, v.clone()).is_ok() {
            prop_assert_eq!(path.get(&doc), Some(&v));
        }
    }

    #[test]
    fn get_after_remove_is_none_or_a_nulled_element(doc in document(), raw in path()) {
        let path = Path::new(&raw);
        let segs = model_segments(&raw);
        let parent = segs[..segs.len() - 1].join(".");
        let in_array = model_lookup(&doc, &parent).is_some_and(Value::is_array);
        let before = path.get(&doc).cloned();
        let mut doc = doc;
        prop_assert_eq!(path.remove(&mut doc), before.clone());
        let want = (in_array && before.is_some()).then_some(Value::Null);
        prop_assert_eq!(path.get(&doc).cloned(), want);
    }
}

/// A path with no segments names the whole document: it reads it, and
/// there is nothing to write or remove at it.
#[test]
fn a_path_without_segments_names_the_document() {
    let doc = json!({"a": 1});
    for raw in ["", ".", ".."] {
        let path = Path::new(raw);
        assert_eq!(path.get(&doc), Some(&doc), "{raw:?}");
        let mut copy = doc.clone();
        assert!(path.set(&mut copy, json!(2)).is_err(), "{raw:?}");
        assert_eq!(path.remove(&mut copy), None, "{raw:?}");
        assert_eq!(copy, doc, "{raw:?}");
    }
}

/// A `set` that is refused has made nothing: not the containers before
/// the step refused, nor the padding before an index past the backfill
/// limit.
#[test]
fn a_refused_set_makes_nothing() {
    for (doc, raw) in [
        (json!({"_id": 1}), "a.2000000"),
        (json!({"_id": 1}), "a.b.1500000.c"),
        (json!({"xs": [1]}), "xs.1500000"),
        (json!({"xs": [1]}), "xs.3.2000000"),
        (json!({"a": {"b": 5}}), "a.b.c"),
        (json!({"a": [1]}), "a.x"),
    ] {
        let path = Path::new(raw);
        let mut copy = doc.clone();
        assert!(path.set(&mut copy, json!(2)).is_err(), "{raw}");
        assert_eq!(copy, doc, "{raw}");
    }
    // The limit counts elements: index 1,499,999 pads to 1,500,000.
    let mut doc = json!({});
    Path::new("a.1499999").set(&mut doc, json!(1)).unwrap();
    assert_eq!(doc["a"].as_array().map(Vec::len), Some(1_500_000));
}
