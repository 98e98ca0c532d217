//! Property-based tests for the document store's core invariants.

use mp_docstore::{Collection, Database, FindOptions, SortDir, Update};
use mp_model::model_match;
use proptest::prelude::*;
use serde_json::{json, Value};

/// Strategy: a small scalar JSON value.
fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        (-1000i64..1000).prop_map(Value::from),
        (-100.0f64..100.0).prop_map(|f| json!(f)),
        "[a-z]{0,8}".prop_map(Value::from),
    ]
}

/// Strategy: a flat-ish document with a few known fields.
fn document() -> impl Strategy<Value = Value> {
    (
        scalar(),
        -1000i64..1000,
        prop::collection::vec("[a-z]{1,4}", 0..4),
        scalar(),
    )
        .prop_map(|(a, n, tags, nested)| {
            json!({
                "a": a,
                "n": n,
                "tags": tags,
                "sub": {"x": nested},
            })
        })
}

/// Strategy: a queue-like document whose `n` (a scalar) and `tags` (an
/// array, so a multikey index) come from domains small enough for
/// filters to hit, with a number, a string and a null among the `n`s.
fn indexed_doc() -> impl Strategy<Value = Value> {
    let n = prop_oneof![
        (-3i64..4).prop_map(Value::from),
        (-3i64..4).prop_map(Value::from),
        Just(json!(1.0)),
        Just(json!("x")),
        Just(Value::Null),
    ];
    (n, prop::collection::vec("[a-d]", 0..4), -3i64..4)
        .prop_map(|(n, tags, p)| json!({"n": n, "tags": tags, "p": p}))
}

/// Strategy: a filter the indexed twin serves by equality, `$in` or a
/// range on `n` or `tags`, alone or beside a second condition.
fn plan_filter() -> impl Strategy<Value = Value> {
    let n = || (-3i64..4).prop_map(Value::from);
    let tag = || "[a-d]".prop_map(Value::from);
    prop_oneof![
        n().prop_map(|v| json!({ "n": v })),
        (n(), n()).prop_map(|(a, b)| json!({"n": {"$in": [a, b]}})),
        (n(), n()).prop_map(|(lo, hi)| json!({"n": {"$gte": lo, "$lt": hi}})),
        n().prop_map(|v| json!({"n": {"$gt": v}})),
        tag().prop_map(|t| json!({ "tags": t })),
        (tag(), tag()).prop_map(|(a, b)| json!({"tags": {"$in": [a, b]}})),
        tag().prop_map(|t| json!({"tags": {"$lte": t}})),
        (n(), tag()).prop_map(|(v, t)| json!({"n": {"$lte": v}, "tags": t})),
        (n(), tag()).prop_map(|(v, t)| json!({"n": v, "tags": {"$gt": t}})),
    ]
}

/// Strategy: one write — which call (0–6, see [`write`]), its filter and
/// its update. The updates move documents between index keys.
fn write_op() -> impl Strategy<Value = (u8, Value, Value)> {
    let update = prop_oneof![
        Just(json!({"$inc": {"n": 1}})),
        Just(json!({"$set": {"tags": ["a"]}})),
        Just(json!({"$set": {"hit": true}})),
    ];
    (0u8..7, plan_filter(), update)
}

/// Run one write on `c`, rendering what it returned.
fn write(c: &Collection, (op, filter, update): &(u8, Value, Value)) -> String {
    let by_n = FindOptions::all().sort_by("n", SortDir::Desc);
    match op {
        0 => format!("{:?}", c.update_many(filter, update)),
        1 => format!("{:?}", c.update_one(filter, update)),
        2 => format!("{:?}", c.delete_many(filter)),
        3 => format!("{:?}", c.delete_one(filter)),
        4 => format!("{:?}", c.upsert(filter, update)),
        5 => format!("{:?}", c.find_one_and_update(filter, update, None, true)),
        _ => format!(
            "{:?}",
            c.find_one_and_update(filter, update, Some(&by_n), false)
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inserting then finding by `_id` returns the same document.
    #[test]
    fn insert_get_roundtrip(doc in document()) {
        let db = Database::new();
        let coll = db.collection("c");
        let id = coll.insert_one(doc.clone()).unwrap();
        let found = coll.get(&id).unwrap();
        for (k, v) in doc.as_object().unwrap() {
            prop_assert_eq!(&found[k], v);
        }
    }

    /// count(filter) equals find(filter).len() for range filters.
    #[test]
    fn count_matches_find(docs in prop::collection::vec(document(), 1..40), lo in -1000i64..1000) {
        let db = Database::new();
        let coll = db.collection("c");
        coll.insert_many(docs).unwrap();
        let q = json!({"n": {"$gte": lo}});
        prop_assert_eq!(coll.count(&q).unwrap(), coll.find(&q).unwrap().len());
    }

    /// Index-accelerated queries return exactly what a full scan does.
    #[test]
    fn index_equals_full_scan(docs in prop::collection::vec(document(), 1..40), needle in -1000i64..1000) {
        let db_plain = Database::new();
        let db_ix = Database::new();
        db_plain.collection("c").insert_many(docs.clone()).unwrap();
        let ixc = db_ix.collection("c");
        ixc.create_index("n", false).unwrap();
        ixc.insert_many(docs).unwrap();

        for q in [
            json!({"n": needle}),
            json!({"n": {"$gte": needle}}),
            json!({"n": {"$lt": needle}}),
            json!({"n": {"$gte": needle - 100, "$lte": needle + 100}}),
        ] {
            let mut a = db_plain.collection("c").find(&q).unwrap();
            let mut b = ixc.find(&q).unwrap();
            let key = |d: &std::sync::Arc<Value>| d["_id"].as_str().unwrap_or("").to_string();
            a.sort_by_key(key);
            b.sort_by_key(key);
            // Ids differ between DBs; compare the `n` multiset instead.
            let mut na: Vec<i64> = a.iter().map(|d| d["n"].as_i64().unwrap()).collect();
            let mut nb: Vec<i64> = b.iter().map(|d| d["n"].as_i64().unwrap()).collect();
            na.sort_unstable();
            nb.sort_unstable();
            prop_assert_eq!(na, nb);
        }
    }

    /// A document updated with $set {path: v} subsequently matches
    /// {path: v}.
    #[test]
    fn set_then_match(doc in document(), v in scalar()) {
        let db = Database::new();
        let coll = db.collection("c");
        let id = coll.insert_one(doc).unwrap();
        coll.update_one(&json!({"_id": id}), &json!({"$set": {"sub.y": v}})).unwrap();
        let found = coll.find_one(&json!({"_id": id})).unwrap().unwrap();
        let q = json!({"sub.y": v});
        prop_assert!(model_match(&q, &found));
    }

    /// $set is idempotent: applying twice equals applying once.
    #[test]
    fn set_idempotent(doc in document(), v in scalar()) {
        let u = Update::parse(&json!({"$set": {"p.q": v}})).unwrap();
        let mut once = doc.clone();
        u.apply(&mut once, 0.0, false).unwrap();
        let mut twice = once.clone();
        u.apply(&mut twice, 0.0, false).unwrap();
        prop_assert_eq!(once, twice);
    }

    /// $inc by a then by b equals $inc by a+b.
    #[test]
    fn inc_additive(a in -100i64..100, b in -100i64..100) {
        let mut d1 = json!({"n": 0});
        let ua = Update::parse(&json!({"$inc": {"n": a}})).unwrap();
        let ub = Update::parse(&json!({"$inc": {"n": b}})).unwrap();
        ua.apply(&mut d1, 0.0, false).unwrap();
        ub.apply(&mut d1, 0.0, false).unwrap();
        let mut d2 = json!({"n": 0});
        let uab = Update::parse(&json!({"$inc": {"n": a + b}})).unwrap();
        uab.apply(&mut d2, 0.0, false).unwrap();
        prop_assert_eq!(d1, d2);
    }

    /// Sorting is total under the store's comparator: sorted output is a
    /// permutation of input and non-decreasing under `cmp_docs`.
    #[test]
    fn sort_is_total(docs in prop::collection::vec(document(), 1..30)) {
        let db = Database::new();
        let coll = db.collection("c");
        coll.insert_many(docs).unwrap();
        let opts = FindOptions::all().sort_by("a", SortDir::Asc);
        let out = coll.find_with(&json!({}), &opts).unwrap();
        prop_assert_eq!(out.len(), coll.len());
        let copts = opts.compile();
        for w in out.windows(2) {
            let c = copts.cmp_docs(&w[0], &w[1]);
            prop_assert_ne!(c, std::cmp::Ordering::Greater);
        }
    }

    /// delete_many removes exactly the matching documents.
    #[test]
    fn delete_removes_matches(docs in prop::collection::vec(document(), 1..30), cut in -1000i64..1000) {
        let db = Database::new();
        let coll = db.collection("c");
        coll.insert_many(docs).unwrap();
        let total = coll.len();
        let q = json!({"n": {"$lt": cut}});
        let matching = coll.count(&q).unwrap();
        let removed = coll.delete_many(&q).unwrap();
        prop_assert_eq!(removed, matching);
        prop_assert_eq!(coll.len(), total - removed);
        prop_assert_eq!(coll.count(&q).unwrap(), 0);
    }

    /// Skip/limit paging visits every document exactly once.
    #[test]
    fn paging_partitions(docs in prop::collection::vec(document(), 1..40), page in 1usize..7) {
        let db = Database::new();
        let coll = db.collection("c");
        coll.insert_many(docs).unwrap();
        let total = coll.len();
        let mut seen = 0;
        let mut offset = 0;
        loop {
            let opts = FindOptions::all()
                .sort_by("_id", SortDir::Asc)
                .skip(offset)
                .limit(page);
            let chunk = coll.find_with(&json!({}), &opts).unwrap();
            if chunk.is_empty() {
                break;
            }
            seen += chunk.len();
            offset += page;
        }
        prop_assert_eq!(seen, total);
    }

    /// Filter round-trip: a filter built from a document's own values
    /// matches that document.
    #[test]
    fn self_filter_matches(doc in document()) {
        let q = json!({"n": doc["n"].clone()});
        prop_assert!(model_match(&q, &doc));
    }

    /// Writes agree across plans: an indexed twin (a scalar index on
    /// `n`, a multikey one on `tags`) and an unindexed one, fed the same
    /// documents and the same writes through index equality, `$in` and
    /// range plans, return the same thing and hold the same documents
    /// after every write.
    #[test]
    fn writes_agree_across_plans(
        docs in prop::collection::vec(indexed_doc(), 0..30),
        ops in prop::collection::vec(write_op(), 1..8),
    ) {
        let (indexed, plain) = (Database::new().collection("c"), Database::new().collection("c"));
        indexed.create_index("n", false).unwrap();
        indexed.create_index("tags", false).unwrap();
        indexed.insert_many(docs.clone()).unwrap();
        plain.insert_many(docs).unwrap();
        for op in &ops {
            prop_assert_eq!(write(&indexed, op), write(&plain, op), "{:?}", op);
            prop_assert_eq!(indexed.dump(), plain.dump(), "after {:?}", op);
        }
    }
}
