//! An index plan answers as a scan does where the two used to part:
//! array operands and nested arrays. An index holds a top-level array's
//! elements, never the array itself, so no array operand is served from
//! it; and a range opens a stored array one level only, as equality,
//! `$in`, the index and MongoDB do.
//!
//! Each filter runs through `find`, `count`, `update_many` and
//! `delete_many` on two collections holding the same documents, one with
//! an index on `k` and one without. Both must give the table's answer.
//! And a bulk-loaded indexed twin keeps answering as the scan and
//! `mp-model` do while writes fold its delta into its runs.

use mp_docstore::{Collection, Database};
use mp_model::model_match;
use proptest::prelude::*;
use serde_json::{json, Value};
use std::collections::BTreeMap;
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

/// A `k`: a small integer, or an array of two (a multikey document).
fn key() -> impl Strategy<Value = Value> {
    let one = || (0i64..12).prop_map(Value::from);
    prop_oneof![
        one(),
        one(),
        (0i64..12, 0i64..12).prop_map(|(a, b)| json!([a, b])),
    ]
}

/// One write after the load: an update moving every document under one
/// key to another (by an index plan on the indexed twin), or a delete of
/// one `_id` or of a range of keys.
#[derive(Debug, Clone)]
enum Write {
    Move(i64, Value),
    DeleteId(i64),
    DeleteAbove(i64),
}

fn write() -> impl Strategy<Value = Write> {
    let update = || ((0i64..12), key()).prop_map(|(from, to)| Write::Move(from, to));
    prop_oneof![
        update(),
        update(),
        (0i64..60).prop_map(Write::DeleteId),
        (6i64..12).prop_map(Write::DeleteAbove),
    ]
}

/// The filters checked after every write: equality, `$in`, a range and
/// an `_id`, each served by a plan of its own on the indexed twin.
fn probes(at: i64) -> [Value; 4] {
    [
        json!({ "k": at % 12 }),
        json!({"k": {"$in": [at % 12, (at + 5) % 12]}}),
        json!({"k": {"$gt": at % 7, "$lte": at % 7 + 4}}),
        json!({ "_id": at }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A bulk-loaded indexed twin, then more inserts of fresh `_id`s than
    /// the load holds — so the `_id` map's delta outgrows its run and
    /// folds at least once, as the `k` index's does when the inserts
    /// bring keys it lacks — interleaved with key-changing updates and
    /// deletes. After every write, equality, `$in`, range and `_id`
    /// answers equal the unindexed twin's scan and a model of the
    /// documents matched by `mp-model`.
    #[test]
    fn a_bulk_loaded_index_answers_as_a_scan_across_folds(
        loaded in prop::collection::vec(key(), 1..20),
        inserted in prop::collection::vec((0i64..24).prop_map(Value::from), 20..40),
        writes in prop::collection::vec(write(), 20..40),
    ) {
        let (indexed, plain) = (Database::new().collection("c"), Database::new().collection("c"));
        indexed.create_index("k", false).unwrap();
        let docs: Vec<Value> = (0..).zip(&loaded).map(|(id, k)| json!({"_id": id, "k": k})).collect();
        let mut model: BTreeMap<i64, Value> = (0..).zip(docs.iter().cloned()).collect();
        indexed.insert_many(docs.clone()).unwrap();
        plain.insert_many(docs).unwrap();
        let fresh = (100..).zip(&inserted).map(|(id, k)| Some(json!({"_id": id, "k": k})));
        let steps = fresh.zip(writes.iter().map(Some).chain(std::iter::repeat(None)));
        for (step, (insert, write)) in (0i64..).zip(steps) {
            if let Some(doc) = insert {
                model.insert(doc["_id"].as_i64().unwrap(), doc.clone());
                indexed.insert_one(doc.clone()).unwrap();
                plain.insert_one(doc).unwrap();
            }
            match write {
                Some(Write::Move(from, to)) => {
                    let (filter, set) = (json!({ "k": from }), json!({"$set": {"k": to}}));
                    for doc in model.values_mut().filter(|d| model_match(&filter, d)) {
                        doc["k"] = to.clone();
                    }
                    for c in [&indexed, &plain] {
                        c.update_many(&filter, &set).unwrap();
                    }
                }
                Some(Write::DeleteId(id)) => {
                    model.remove(id);
                    for c in [&indexed, &plain] {
                        c.delete_one(&json!({ "_id": id })).unwrap();
                    }
                }
                Some(Write::DeleteAbove(lo)) => {
                    let filter = json!({"k": {"$gte": lo}});
                    model.retain(|_, d| !model_match(&filter, d));
                    for c in [&indexed, &plain] {
                        c.delete_many(&filter).unwrap();
                    }
                }
                None => {}
            }
            for at in [step, step + 3, 100 + step / 2] {
                for filter in probes(at) {
                    let want: Vec<i64> = (model.iter())
                        .filter(|(_, d)| model_match(&filter, d))
                        .map(|(id, _)| *id)
                        .collect();
                    prop_assert_eq!(ids(&indexed.find(&filter).unwrap()), want.clone(), "{} after {:?}", filter, write);
                    prop_assert_eq!(ids(&plain.find(&filter).unwrap()), want, "{}", filter);
                }
                let by_id = indexed.get(&json!(at));
                prop_assert_eq!(by_id.as_deref(), model.get(&at));
            }
        }
        prop_assert_eq!(indexed.dump(), plain.dump());
    }
}
