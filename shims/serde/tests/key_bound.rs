//! The store of shared field names is bounded: a flood of junk names
//! fills it to its bound and no further, the names that got in stay
//! shared, and maps built afterwards — from names old, new, junk and
//! long — are as correct as before, only their new keys are owned.
//! Its own test binary, because it fills that process-wide store.
//!
//! A shared name has one address however many maps hold it; an owned
//! one has an address per entry. That is all this test looks at —
//! `keys()` yields `&String` either way.

use serde::{Map, Value};

fn one_entry(name: &str) -> Map<String, Value> {
    let mut m = Map::new();
    m.insert_str(name, Value::Null);
    m
}

/// Do two maps built separately hold `name` at one address?
fn is_shared(name: &str) -> bool {
    let (a, mut b) = (one_entry(name), Map::new());
    b.insert(name.to_owned(), Value::Null);
    assert_eq!(a, b);
    let address = |m: &Map<String, Value>| m.keys().next().map(|k| k as *const String);
    address(&a) == address(&b)
}

fn shared_among(names: impl Iterator<Item = String>) -> usize {
    names.filter(|name| is_shared(name)).count()
}

#[test]
fn a_flood_of_names_fills_the_store_to_its_bound_and_no_further() {
    // Ten times what the store takes (a few thousand); just past it
    // under Miri, which is there for the leak check.
    let flood: usize = if cfg!(miri) { 4_500 } else { 40_960 };
    assert!(is_shared("formula"), "a name seen before the flood");
    assert!(!is_shared(&"n".repeat(200)), "too long to share");

    let took = shared_among((0..flood).map(|i| format!("junk-{i}")));
    assert!(
        (1_000..flood / 2).contains(&took) || cfg!(miri),
        "{took} of {flood} junk names shared"
    );
    // Full: not one more name gets in, whatever it is ...
    assert_eq!(shared_among((0..flood).map(|i| format!("more-{i}"))), 0);
    assert!(!is_shared("late_field"));
    // ... and the ones that did are where they were.
    assert_eq!(shared_among((0..flood).map(|i| format!("junk-{i}"))), took);
    assert!(is_shared("formula"));

    // A document made of all four kinds of name behaves as one map.
    let long = "n".repeat(200);
    let names = ["formula", "junk-0", "late_field", long.as_str(), "more-7"];
    let mut doc = Map::new();
    for (i, name) in names.iter().enumerate() {
        assert_eq!(doc.insert_str(name, Value::from(i as u64)), None);
    }
    assert_eq!(
        doc.insert("late_field".to_owned(), Value::from(9u64)),
        Some(Value::from(2u64))
    );
    assert!(doc.keys().map(String::as_str).eq(names));
    assert_eq!(doc.get("more-7"), Some(&Value::from(4u64)));
    let copy = doc.clone();
    assert_eq!(copy, doc);
    assert_eq!(
        Value::Object(copy).to_string(),
        format!(r#"{{"formula":0,"junk-0":1,"late_field":9,"{long}":3,"more-7":4}}"#)
    );
    assert_eq!(doc.remove("junk-0"), Some(Value::from(1u64)));
    let owned: Vec<String> = doc.into_iter().map(|(k, _)| k).collect();
    assert_eq!(owned, ["formula", "late_field", long.as_str(), "more-7"]);
}
