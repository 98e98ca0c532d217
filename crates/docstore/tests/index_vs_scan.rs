//! An index plan answers as a scan does where the two used to part:
//! array operands and nested arrays. An index holds a top-level array's
//! elements, never the array itself, so no array operand is served from
//! it; and a range opens a stored array one level only, as equality,
//! `$in`, the index and MongoDB do.
//!
//! Each filter runs through `find`, `count`, `update_many` and
//! `delete_many` on two collections holding the same documents, one with
//! an index on `k` and one without. Both must give the table's answer.

use mp_docstore::{Collection, Database};
use serde_json::{json, Value};
use std::sync::Arc;

/// The `_id`s 0–6: a scalar, no `k`, a null, a top-level array, a
/// nested array, a string and an empty array.
fn documents() -> Vec<Value> {
    vec![
        json!({"_id": 0, "k": 1}),
        json!({"_id": 1}),
        json!({"_id": 2, "k": null}),
        json!({"_id": 3, "k": [1, 2]}),
        json!({"_id": 4, "k": [[1, 2]]}),
        json!({"_id": 5, "k": "a"}),
        json!({"_id": 6, "k": []}),
    ]
}

/// (filter, the `_id`s it matches, the plan the indexed twin runs).
fn table() -> Vec<(Value, Vec<i64>, &'static str)> {
    vec![
        (json!({"k": [1, 2]}), vec![3], "COLLSCAN"),
        (json!({"k": {"$in": [[1, 2]]}}), vec![3], "COLLSCAN"),
        (json!({"k": []}), vec![6], "COLLSCAN"),
        (json!({"k": {"$lte": 2}}), vec![0, 3], "INDEX_RANGE"),
        (
            json!({"k": {"$gt": 0, "$lt": 2}}),
            vec![0, 3],
            "INDEX_RANGE",
        ),
    ]
}

/// The indexed twin and the unindexed one, freshly filled.
fn twins() -> [(&'static str, Arc<Collection>); 2] {
    ["indexed", "plain"].map(|name| {
        let c = Database::new().collection("c");
        if name == "indexed" {
            c.create_index("k", false).unwrap();
        }
        c.insert_many(documents()).unwrap();
        (name, c)
    })
}

fn ids<'a>(docs: impl IntoIterator<Item = &'a Arc<Value>>) -> Vec<i64> {
    let mut ids: Vec<i64> = docs
        .into_iter()
        .map(|d| d["_id"].as_i64().unwrap())
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn an_index_plan_answers_as_a_scan_does() {
    for (filter, want, plan) in table() {
        for (twin, c) in twins() {
            let at = format!("{filter} on the {twin} twin");
            assert_eq!(ids(&c.find(&filter).unwrap()), want, "find: {at}");
            assert_eq!(c.count(&filter).unwrap(), want.len(), "count: {at}");
            if twin == "indexed" {
                assert_eq!(c.explain(&filter).unwrap()["plan"], plan, "{at}");
            }
        }
        for (twin, c) in twins() {
            let at = format!("{filter} on the {twin} twin");
            let set = json!({"$set": {"hit": true}});
            let res = c.update_many(&filter, &set).unwrap();
            assert_eq!(
                (res.matched, res.modified),
                (want.len(), want.len()),
                "{at}"
            );
            let hit = c.find(&json!({"hit": true})).unwrap();
            assert_eq!(ids(&hit), want, "update_many: {at}");
        }
        for (twin, c) in twins() {
            let at = format!("{filter} on the {twin} twin");
            assert_eq!(c.delete_many(&filter).unwrap(), want.len(), "{at}");
            let kept = ids(&c.dump());
            let gone: Vec<i64> = (0..7).filter(|id| !kept.contains(id)).collect();
            assert_eq!(gone, want, "delete_many: {at}");
        }
    }
}

/// A range whose bounds hold no key is answered, not refused: the
/// index walks nothing, the scan matches nothing.
#[test]
fn an_empty_range_matches_nothing() {
    for filter in [
        json!({"k": {"$gt": 2, "$lt": 1}}),
        json!({"k": {"$gt": 1, "$lt": 1}}),
        json!({"k": {"$gte": 1, "$lt": 1}}),
    ] {
        for (twin, c) in twins() {
            assert_eq!(c.count(&filter).unwrap(), 0, "{filter} on the {twin} twin");
            assert_eq!(
                c.delete_many(&filter).unwrap(),
                0,
                "{filter} on the {twin} twin"
            );
        }
    }
}
