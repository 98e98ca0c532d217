//! Read-path equivalence and isolation tests for the zero-copy refactor.
//!
//! The store hands out shared `Arc<Document>` handles and matches through
//! pre-compiled filters. These tests pin down the two guarantees that
//! refactor must preserve:
//!
//! 1. **Equivalence** — the Arc/compiled read path returns *byte-identical*
//!    results (content and order) to a reference that deep-clones every
//!    document and finds through `mp-model`, the test-only model of the
//!    store's semantics that shares no code with it, across generated
//!    filters, sorts, skip/limit windows, and projections.
//! 2. **Isolation** — documents returned from a query are immutable
//!    snapshots: later writes to the store are never visible through a
//!    held handle, and holding a handle never blocks or corrupts later
//!    writes.

use mp_docstore::{Collection, Database, Filter, FindOptions, SortDir};
use mp_model::{model_find, model_match, ModelOptions};
use proptest::prelude::*;
use serde_json::{json, Value};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Reference implementation: the model over owned copies.
// ---------------------------------------------------------------------------

/// A clone-based find: deep-copy the whole collection in store order and
/// let the model match, order and project the owned values.
fn reference_find(coll: &Collection, filter: &Value, opts: &FindOptions) -> Vec<Value> {
    let mut owned: Vec<Value> = Vec::new();
    for d in coll.dump() {
        // Deliberate deep copy: this function *is* the clone-based baseline.
        owned.push((*d).clone());
    }
    let model_opts = ModelOptions {
        sort: opts
            .sort
            .iter()
            .map(|(path, dir)| (path.clone(), *dir == SortDir::Desc))
            .collect(),
        skip: opts.skip,
        limit: opts.limit,
        projection: opts.projection.clone(),
    };
    model_find(&owned, filter, &model_opts)
}

/// Byte-identical comparison: serialize both sides and compare the strings,
/// so field order, number formatting, and result order all participate.
fn assert_byte_identical(engine: &[Arc<Value>], reference: &[Value]) -> Result<(), TestCaseError> {
    let e = serde_json::to_string(&engine.to_vec()).unwrap();
    let r = serde_json::to_string(&reference.to_vec()).unwrap();
    prop_assert_eq!(e, r);
    Ok(())
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        (-50i64..50).prop_map(Value::from),
        "[a-z]{0,4}".prop_map(Value::from),
    ]
}

fn document() -> impl Strategy<Value = Value> {
    (
        scalar(),
        -50i64..50,
        prop::collection::vec("[a-z]{1,3}", 0..3),
        scalar(),
    )
        .prop_map(|(a, n, tags, x)| {
            json!({
                "a": a,
                "n": n,
                "tags": tags,
                "sub": {"x": x},
            })
        })
}

/// A filter drawn from the operator families the store supports, kept in
/// ranges that actually select interesting subsets of `document()`.
fn filter() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(json!({})),
        (-50i64..50).prop_map(|v| json!({"n": v})),
        (-50i64..50).prop_map(|v| json!({"n": {"$gte": v}})),
        (-50i64..50).prop_map(|v| json!({"n": {"$lt": v}})),
        ((-50i64..50), (0i64..30)).prop_map(|(lo, w)| json!({"n": {"$gte": lo, "$lte": lo + w}})),
        prop::collection::vec(-50i64..50, 1..4).prop_map(|vs| json!({"n": {"$in": vs}})),
        "[a-z]{1,3}".prop_map(|t| json!({"tags": t})),
        scalar().prop_map(|v| json!({"sub.x": v})),
        ((-50i64..50), "[a-z]{1,3}")
            .prop_map(|(v, t)| json!({"$or": [{"n": {"$lt": v}}, {"tags": t}]})),
    ]
}

/// Build `FindOptions` from plain generated scalars (the proptest shim has
/// no `prop::option::of`). `sort_sel`/`proj_sel` pick one of a few shapes.
fn build_options(sort_sel: u8, skip: usize, limit_sel: usize, proj_sel: u8) -> FindOptions {
    let mut opts = FindOptions::all();
    opts = match sort_sel % 4 {
        0 => opts,
        1 => opts.sort_by("n", SortDir::Asc),
        2 => opts.sort_by("n", SortDir::Desc).sort_by("a", SortDir::Asc),
        _ => opts
            .sort_by("sub.x", SortDir::Asc)
            .sort_by("n", SortDir::Desc),
    };
    opts = opts.skip(skip);
    if limit_sel > 0 {
        opts = opts.limit(limit_sel);
    }
    match proj_sel % 3 {
        0 => opts,
        1 => opts.project(&["n"]),
        _ => opts.project(&["n", "sub.x", "tags"]),
    }
}

// ---------------------------------------------------------------------------
// Equivalence properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Unindexed collections scan in document-id order — the same order
    /// `dump` walks — so the shared-ownership path must agree with the
    /// clone-based reference byte for byte, order included, even without
    /// a sort.
    #[test]
    fn arc_path_matches_clone_reference(
        docs in prop::collection::vec(document(), 0..30),
        q in filter(),
        sort_sel in 0u8..4,
        skip in 0usize..6,
        limit_sel in 0usize..10,
        proj_sel in 0u8..3,
    ) {
        let db = Database::new();
        let coll = db.collection("c");
        coll.insert_many(docs).unwrap();
        let opts = build_options(sort_sel, skip, limit_sel, proj_sel);

        let engine = coll.find_with(&q, &opts).unwrap();
        let reference = reference_find(&coll, &q, &opts);
        assert_byte_identical(&engine, &reference)?;
    }

    /// With a secondary index the pre-sort candidate order may legally be
    /// index order, so pin a total sort (unique `_id` tiebreak) and demand
    /// byte-identical output through the index-accelerated plan too.
    #[test]
    fn indexed_arc_path_matches_clone_reference(
        docs in prop::collection::vec(document(), 0..30),
        q in filter(),
        skip in 0usize..6,
        limit_sel in 0usize..10,
        proj_sel in 0u8..3,
    ) {
        let db = Database::new();
        let coll = db.collection("c");
        coll.create_index("n", false).unwrap();
        coll.insert_many(docs).unwrap();
        let mut opts = FindOptions::all()
            .sort_by("n", SortDir::Asc)
            .sort_by("_id", SortDir::Asc)
            .skip(skip);
        if limit_sel > 0 {
            opts = opts.limit(limit_sel);
        }
        if proj_sel % 3 == 1 {
            opts = opts.project(&["n"]);
        } else if proj_sel % 3 == 2 {
            opts = opts.project(&["n", "sub.x", "tags"]);
        }

        let engine = coll.find_with(&q, &opts).unwrap();
        let reference = reference_find(&coll, &q, &opts);
        assert_byte_identical(&engine, &reference)?;
    }

    /// The compiled filter agrees with the model's matcher on every
    /// generated (filter, document) pair — the per-call contract under
    /// the set-level properties above.
    #[test]
    fn compiled_matches_agrees_with_the_model(doc in document(), q in filter()) {
        let cf = Filter::parse(&q).unwrap().compile();
        prop_assert_eq!(cf.matches(&doc), model_match(&q, &doc));
    }
}

/// A sorted find projects its ordered window after the sort, through the
/// same scan that matched (under a filter every row of the window
/// passes). The generated collections above stay under 30 documents; this
/// one holds hundreds, with and without a window.
#[test]
fn sorted_projection_of_a_large_window_matches_the_reference() {
    let db = Database::new();
    let coll = db.collection("c");
    let doc = |i: i64| json!({"n": (i * 37) % 101, "a": i, "sub": {"x": i % 7}, "tags": [i]});
    coll.insert_many((0..400).map(doc).collect()).unwrap();
    let q = json!({"a": {"$gte": 25}});
    let sorted = FindOptions::all()
        .sort_by("n", SortDir::Desc)
        .sort_by("a", SortDir::Asc);
    for opts in [
        sorted.clone().project(&["n", "sub.x", "tags"]),
        sorted.clone().skip(7).limit(200).project(&["a"]),
        sorted.skip(370).project(&["n"]),
    ] {
        let engine = coll.find_with(&q, &opts).unwrap();
        let reference = reference_find(&coll, &q, &opts);
        assert!(!reference.is_empty(), "{opts:?}");
        assert_byte_identical(&engine, &reference).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Mutation isolation
// ---------------------------------------------------------------------------

/// A result set is a snapshot: updates, deletes, and inserts that happen
/// after `find` returns are invisible through the held handles.
#[test]
fn held_results_do_not_observe_later_writes() {
    let db = Database::new();
    let coll = db.collection("c");
    coll.insert_many((0..20).map(|i| json!({"i": i, "state": "READY"})).collect())
        .unwrap();

    let held = coll.find(&json!({"state": "READY"})).unwrap();
    assert_eq!(held.len(), 20);
    let before = serde_json::to_string(&held).unwrap();

    // Mutate every document, delete half, add new ones.
    coll.update_many(
        &json!({}),
        &json!({"$set": {"state": "RUNNING", "extra": true}}),
    )
    .unwrap();
    coll.delete_many(&json!({"i": {"$lt": 10}})).unwrap();
    coll.insert_one(json!({"i": 99, "state": "READY"})).unwrap();

    // The held snapshot is bit-for-bit what it was at query time...
    assert_eq!(serde_json::to_string(&held).unwrap(), before);
    for d in &held {
        assert_eq!(d["state"], json!("READY"));
        assert!(d.get("extra").is_none());
    }
    // ...while the store itself moved on.
    assert_eq!(coll.count(&json!({"state": "RUNNING"})).unwrap(), 10);
    assert_eq!(coll.count(&json!({"state": "READY"})).unwrap(), 1);
}

/// Copy-on-write means an update must not mutate the stored document in
/// place even when a reader still shares it; and dropping reader handles
/// afterwards must leave the store intact.
#[test]
fn cow_updates_replace_rather_than_mutate() {
    let db = Database::new();
    let coll = db.collection("c");
    let id = coll.insert_one(json!({"v": 1})).unwrap();

    let before = coll.get(&id).unwrap();
    coll.update_one(&json!({"_id": id.clone()}), &json!({"$inc": {"v": 41}}))
        .unwrap();
    let after = coll.get(&id).unwrap();

    // Distinct allocations: the write replaced the Arc, it did not write
    // through it.
    assert!(!Arc::ptr_eq(&before, &after));
    assert_eq!(before["v"], json!(1));
    assert_eq!(after["v"], json!(42));

    drop(before);
    assert_eq!(coll.get(&id).unwrap()["v"], json!(42));
}

/// Handles returned while other readers exist never alias writable state:
/// a full clear with outstanding handles leaves those handles intact.
#[test]
fn clear_with_outstanding_handles_is_safe() {
    let db = Database::new();
    let coll = db.collection("c");
    coll.insert_many((0..5).map(|i| json!({"i": i})).collect())
        .unwrap();
    let held = coll.find(&json!({})).unwrap();
    coll.clear().unwrap();
    assert_eq!(coll.len(), 0);
    assert_eq!(held.len(), 5);
    let is: Vec<i64> = held.iter().map(|d| d["i"].as_i64().unwrap()).collect();
    assert_eq!(is, vec![0, 1, 2, 3, 4]);
}

/// A scan never fans out from inside a fan-out: a sharded find and
/// count are one scan over the shards' segments, one scatter of at most
/// `size - 1` threads each, and the scans a MapReduce map phase runs
/// inside its own scatter stay on the thread that maps them.
#[test]
fn scans_fan_out_once_and_never_from_inside_a_scatter() {
    use mp_docstore::{HadoopEngine, MapReduce, ShardedCluster, MORSEL_ROWS};
    use mp_exec::WorkPool;
    use std::sync::OnceLock;

    static POOL: OnceLock<WorkPool> = OnceLock::new();
    let pool = POOL.get_or_init(|| WorkPool::new(3));
    let threads =
        |before: mp_exec::PoolStats| pool.stats().jobs_dispatched - before.jobs_dispatched;
    let rows = 4 * MORSEL_ROWS;
    let filter = json!({"n": {"$lt": 10}});
    let want = (0..rows).filter(|i| i % 100 < 10).count();

    let cluster = ShardedCluster::new(3, "k");
    for i in 0..rows {
        cluster
            .insert_one("c", json!({"k": i, "n": i % 100}))
            .unwrap();
    }
    pool.install(|| {
        let before = pool.stats();
        assert_eq!(cluster.find("c", &filter).unwrap().len(), want);
        assert_eq!(threads(before), 2, "one scatter over the three shards");
        let before = pool.stats();
        assert_eq!(cluster.count("c", &filter).unwrap(), want);
        assert_eq!(
            (
                threads(before),
                pool.stats().morsel_scatters - before.morsel_scatters
            ),
            (2, 1)
        );
    });

    let db = Database::new();
    let coll = db.collection("c");
    coll.insert_many((0..rows).map(|i| json!({"n": i % 100})).collect())
        .unwrap();
    let inputs: Vec<Arc<Value>> = (0..8).map(|i| Arc::new(json!({"i": i}))).collect();
    let map = move |doc: &Value, emit: &mut dyn FnMut(Value, Value)| {
        let bound = doc["i"].as_u64().unwrap_or(0) + 1;
        let n = coll.count(&json!({"n": {"$lt": bound}})).unwrap();
        emit(json!("rows"), json!(n));
    };
    let reduce = |_: &Value, vs: &[Value]| json!(vs.iter().filter_map(Value::as_u64).sum::<u64>());
    pool.install(|| {
        let before = pool.stats();
        let out = HadoopEngine::new(4).run(&inputs, &map, &reduce).unwrap();
        let want: usize = (1..=8)
            .map(|b| (0..rows).filter(|i| i % 100 < b).count())
            .sum();
        assert_eq!(out, vec![(json!("rows"), json!(want))]);
        assert_eq!(threads(before), 2, "the map phase's scatter only");
        assert_eq!(pool.stats().morsel_scatters - before.morsel_scatters, 1);
    });
}
