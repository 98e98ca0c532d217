//! Property tests pinning the compiled read path to `mp-model`, the
//! test-only model of the store's semantics that shares no code with it.
//! The compiled forms ([`FindOptions::compile`] → `CompiledFindOptions` /
//! `CompiledProjection`) are diffed against the model's sort, window and
//! projection:
//!
//! * the compiled comparator orders exactly like the model over
//!   mixed-type sort keys (numbers vs strings vs null vs missing);
//! * compiled sort + skip + limit returns the identical window,
//!   including the edges (skip past the end, limit 0, limit past the
//!   end, both combined);
//! * the compiled projection — both the trie plan and the sequential
//!   fallback for numeric segments — emits byte-identical output for
//!   nested paths, missing fields, overlapping/duplicate paths, and
//!   paths through arrays.
//!
//! Documents are generated nested (objects, arrays, mixed scalar
//! leaves) so paths resolve, partially resolve, or miss entirely.
//!
//! The column arm (`column_pruned_scans_match_the_oracle` and the tests
//! after it) pins collection scans that read through a scan segment
//! (DESIGN §16) to the model's matcher: find, count, projected, sorted
//! and windowed results are the model's on the scan that builds the
//! segment and its columns and on the ones that find them there.
//!
//! The window arm (`bounded_windows_answer_as_the_unpruned_twin`)
//! runs skip/limit windows over the same rows, whose filtered paths a
//! column mostly leaves undecided (missing, `null`, strings, arrays,
//! paths through arrays, integers past 2^53), against the model and
//! against a twin collection whose column slots other paths hold, so
//! that it scans unpruned; a window's walk rules out no row past the
//! one that fills it (`a_window_stops_the_column_work_where_it_fills`
//! is the count gate of that).
//!
//! The rows arm (`rows_sink_agrees_with_find_with`, and a step of the
//! column arm) pins the scan's third sink, `Collection::find_rows`, to
//! the other two: its handles are `find_with`'s without the projection,
//! its rows `find_with`'s with it.
//!
//! The fan-out arm (`fanned_out_scans_answer_as_the_inline_walk`) runs
//! the same reads of collections of 0 to about 5 scan morsels on pools
//! of width 1, 2 and 3 (`WorkPool::install`): windowed, projected and
//! whole finds, `find_rows`, `count` and `distinct`, with and without
//! column bounds, answer as the inline walk does and as the model does,
//! and a fanned-out walk rules out no fewer rows than the inline one and
//! no more than the column rules out in the whole collection.

use mp_docstore::{Collection, CompiledProjection, Database, FindOptions, SortDir, MORSEL_ROWS};
use mp_exec::WorkPool;
use mp_model::{
    model_cmp_docs, model_match, model_project, model_window, ModelOptions, ModelSortKey,
};
use proptest::prelude::*;
use serde_json::{json, Map, Value};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Mixed scalar leaves: sorting keys of different types against each
/// other exercises `cmp_values`' cross-type total order.
fn leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        (-40i64..40).prop_map(Value::from),
        (-8.0f64..8.0).prop_map(|f| json!(f)),
        "[a-c]{0,3}".prop_map(Value::from),
    ]
}

fn object_of(inner: impl Strategy<Value = Value> + 'static) -> impl Strategy<Value = Value> {
    prop::collection::vec(("[a-d]", inner), 0..4).prop_map(|pairs| {
        let mut m = Map::new();
        for (k, v) in pairs {
            m.insert(k, v);
        }
        Value::Object(m)
    })
}

/// A nested value: scalar, object of known-alphabet keys, or array.
/// Explicit depth levels stand in for `prop_recursive` (the shim has
/// no recursion combinator); three levels is enough for the generated
/// paths (max three segments) to fully resolve.
fn nested() -> impl Strategy<Value = Value> {
    let level0 = leaf().boxed();
    let level1 = prop_oneof![
        leaf(),
        object_of(level0.clone()),
        prop::collection::vec(level0, 0..3).prop_map(Value::Array),
    ]
    .boxed();
    prop_oneof![
        leaf(),
        object_of(level1.clone()),
        prop::collection::vec(level1, 0..3).prop_map(Value::Array),
    ]
}

/// A document: an object whose top-level keys come from the same
/// alphabet the generated paths use, so paths hit, partially hit, or
/// miss. `_id` is present half the time (projection always includes it
/// when present).
fn document() -> impl Strategy<Value = Value> {
    (
        prop::collection::vec(("[a-d]", nested()), 0..5),
        prop_oneof![Just(None), "[a-z]{1,6}".prop_map(Some)],
    )
        .prop_map(|(pairs, id)| {
            let mut m = Map::new();
            if let Some(id) = id {
                m.insert("_id".to_string(), Value::String(id.into()));
            }
            for (k, v) in pairs {
                m.insert(k, v);
            }
            Value::Object(m)
        })
}

/// A dotted path over the document alphabet, with numeric segments (to
/// force the sequential projection fallback) and a never-present key.
fn path() -> impl Strategy<Value = Value> {
    prop::collection::vec(
        prop_oneof![
            Just("a"),
            Just("b"),
            Just("c"),
            Just("d"),
            Just("0"),
            Just("1"),
            Just("zz"),
        ],
        1..4,
    )
    .prop_map(|segs| Value::String(segs.join(".").into()))
}

fn path_string() -> impl Strategy<Value = String> {
    path().prop_map(|v| v.as_str().unwrap().to_string())
}

fn sort_spec() -> impl Strategy<Value = Vec<(String, SortDir)>> {
    prop::collection::vec(
        (
            path_string(),
            prop_oneof![Just(SortDir::Asc), Just(SortDir::Desc)],
        ),
        0..3,
    )
}

/// FindOptions with edge-heavy skip/limit: the ranges comfortably
/// exceed the generated collection size, so skip==len, skip>len,
/// limit 0, and limit>len all occur.
fn options() -> impl Strategy<Value = FindOptions> {
    (
        sort_spec(),
        0usize..40,
        prop_oneof![Just(None), (0usize..40).prop_map(Some)],
        prop_oneof![
            Just(None),
            prop::collection::vec(path_string(), 0..4).prop_map(Some)
        ],
    )
        .prop_map(|(sort, skip, limit, projection)| FindOptions {
            sort,
            skip,
            limit,
            projection,
        })
}

/// What the filtered path of a column-arm document holds. Integers past
/// 2^53 lie between their `f64` neighbours: the matcher compares them
/// exactly and the column leaves the ones no `f64` holds undecided, as
/// it does everything that is not a plain number.
fn column_leaf() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        Just(None),
        (-12i64..12).prop_map(|i| Some(json!(i))),
        (-24i64..24).prop_map(|h| Some(json!(h as f64 / 2.0))),
        (0u64..4).prop_map(|k| Some(json!((1u64 << 53) + k))),
        (-12i64..12).prop_map(|i| Some(json!(i.to_string()))),
        Just(Some(Value::Null)),
        prop::collection::vec(-12i64..12, 0..3).prop_map(|a| Some(json!(a))),
    ]
}

/// `v` at the top level, `o.v` under a plain object, and `o.v` reached
/// by traversing an array of objects; `w` is the second predicate's path.
fn column_document() -> impl Strategy<Value = Value> {
    (
        column_leaf(),
        column_leaf(),
        prop::collection::vec(column_leaf(), 0..3),
        any::<bool>(),
        0i64..4,
    )
        .prop_map(|(v, ov, elems, nested_array, w)| {
            let under = |leaf: Option<Value>| match leaf {
                Some(x) => json!({ "v": x }),
                None => json!({}),
            };
            let mut doc = json!({ "w": w });
            if let Some(v) = v {
                doc["v"] = v;
            }
            doc["o"] = if nested_array {
                Value::Array(elems.into_iter().map(under).collect())
            } else {
                under(ov)
            };
            doc
        })
}

fn operand() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-12i64..12).prop_map(|i| json!(i)),
        (-24i64..24).prop_map(|h| json!(h as f64 / 2.0)),
        (0u64..4).prop_map(|k| json!((1u64 << 53) + k)),
        (-12i64..12).prop_map(|i| json!(i.to_string())),
    ]
}

/// Comparison operators on one path (`$gt/$gte/$lt/$lte/$eq`, the ones
/// a column can decide) mixed with ones it cannot (`$ne`, `$in`,
/// `$not`), a second predicate on `w`, and an `$or` over both paths.
fn column_filter() -> impl Strategy<Value = Value> {
    let ops = prop::collection::vec(
        (
            prop_oneof![
                Just("$gt"),
                Just("$gte"),
                Just("$lt"),
                Just("$lte"),
                Just("$eq"),
                Just("$ne"),
                Just("$in"),
                Just("$not"),
            ],
            operand(),
        ),
        1..4,
    );
    (
        prop_oneof![Just("v"), Just("o.v")],
        ops,
        prop_oneof![Just(None), (0i64..4).prop_map(Some)],
        prop_oneof![Just(None), (operand(), 0i64..4).prop_map(Some)],
    )
        .prop_map(|(path, ops, second, or)| {
            let mut on_path = Map::new();
            for (op, x) in ops {
                let x = match op {
                    "$in" => json!([x, 3]),
                    "$not" => json!({ "$gt": x }),
                    _ => x,
                };
                on_path.insert(op.to_string(), x);
            }
            let mut f = json!({ path: on_path });
            if let Some(w) = second {
                f["w"] = json!({ "$lte": w });
            }
            if let Some((x, w)) = or {
                f["$or"] = json!([{ path: { "$lt": x } }, { "w": w }]);
            }
            f
        })
}

/// The model's form of a find's options.
fn model_options(opts: &FindOptions) -> ModelOptions {
    ModelOptions {
        sort: model_sort(&opts.sort),
        skip: opts.skip,
        limit: opts.limit,
        projection: opts.projection.clone(),
    }
}

fn model_sort(sort: &[(String, SortDir)]) -> Vec<ModelSortKey> {
    let key = |(path, dir): &(String, SortDir)| (path.clone(), *dir == SortDir::Desc);
    sort.iter().map(key).collect()
}

/// Sort, skip, limit, then project, as the model does them.
fn model_pipeline(docs: Vec<Value>, opts: &FindOptions) -> Vec<Value> {
    let rows = model_window(docs, &model_options(opts));
    match &opts.projection {
        Some(paths) => rows.iter().map(|d| model_project(d, paths)).collect(),
        None => rows,
    }
}

/// `find`, `count`, projected, sorted and windowed reads of `filter`
/// all equal the model's over `docs` in store order.
fn reads_match_oracle(
    db: &Database,
    docs: &[Value],
    filter: &Value,
    (skip, limit): (usize, usize),
) -> Result<(), TestCaseError> {
    let coll = db.collection("c");
    let want: Vec<&Value> = docs.iter().filter(|d| model_match(filter, d)).collect();
    let got = |opts: &FindOptions| -> Vec<String> {
        let rows = coll.find_with(filter, opts).unwrap();
        rows.iter().map(|d| d.to_string()).collect()
    };
    let reference = |opts: &FindOptions| -> Vec<String> {
        let rows = model_pipeline(want.iter().copied().cloned().collect(), opts);
        rows.iter().map(Value::to_string).collect()
    };
    prop_assert_eq!(coll.count(filter).unwrap(), want.len());
    let window = FindOptions::all().skip(skip).limit(limit);
    for opts in [
        FindOptions::all(),
        FindOptions::all().project(&["v", "o.v"]),
        FindOptions::all().sort_by("w", SortDir::Desc).skip(skip),
        window.clone(),
        window.project(&["w"]),
    ] {
        prop_assert_eq!(got(&opts), reference(&opts));
    }
    rows_sink_matches_find_with(&coll, filter, &["v", "o.v"], 0, None)?;
    rows_sink_matches_find_with(&coll, filter, &["w"], skip, Some(limit))
}

/// `find_rows` against `find_with` over the same window: the handles it
/// returns are the very documents an unprojected find returns, the rows
/// equal what a projected one returns.
fn rows_sink_matches_find_with(
    coll: &Collection,
    filter: &Value,
    paths: &[&str],
    skip: usize,
    limit: Option<usize>,
) -> Result<(), TestCaseError> {
    let window = FindOptions {
        skip,
        limit,
        ..FindOptions::all()
    };
    let proj = CompiledProjection::compile(paths);
    let (handles, rows) = coll.find_rows(filter, &proj, skip, limit).unwrap();
    let whole = coll.find_with(filter, &window).unwrap();
    let projected = coll.find_with(filter, &window.project(paths)).unwrap();
    prop_assert_eq!(handles.len(), whole.len());
    prop_assert!(handles.iter().zip(&whole).all(|(h, w)| Arc::ptr_eq(h, w)));
    prop_assert!(rows.iter().eq(projected.iter().map(|d| &**d)));
    Ok(())
}

/// A filter over the [`document`] alphabet: everything, presence of a
/// path, equality with a leaf, or a numeric bound (which a COLLSCAN
/// tests against a column first).
fn document_filter() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(json!({})),
        (path_string(), any::<bool>()).prop_map(|(p, yes)| json!({ p: {"$exists": yes} })),
        (path_string(), leaf()).prop_map(|(p, x)| json!({ p: x })),
        (path_string(), -40i64..40).prop_map(|(p, x)| json!({ p: {"$gte": x} })),
    ]
}

fn byte_identical(a: &[Value], b: &[Value]) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        serde_json::to_string(&a.to_vec()).unwrap(),
        serde_json::to_string(&b.to_vec()).unwrap()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The compiled comparator agrees with the model's on every pair,
    /// including mixed-type and missing keys, in both directions.
    #[test]
    fn compiled_comparator_matches_the_model(
        a in document(),
        b in document(),
        sort in sort_spec(),
    ) {
        let copts = FindOptions { sort: sort.clone(), ..FindOptions::all() }.compile();
        let keys = model_sort(&sort);
        prop_assert_eq!(copts.cmp_docs(&a, &b), model_cmp_docs(&a, &b, &keys));
        prop_assert_eq!(copts.cmp_docs(&b, &a), model_cmp_docs(&b, &a, &keys));
    }

    /// Compiled sort + skip + limit produces the identical result
    /// window (content *and* order) to the model's.
    #[test]
    fn compiled_order_matches_the_model(
        docs in prop::collection::vec(document(), 0..30),
        opts in options(),
    ) {
        let copts = opts.compile();
        let model = model_window(docs.clone(), &model_options(&opts));
        let mut compiled = docs;
        copts.apply_order(&mut compiled);
        byte_identical(&compiled, &model)?;
    }

    /// The compiled projection is byte-identical to the model's on every
    /// document — nested paths, missing fields, duplicate and
    /// overlapping paths, and numeric segments (the sequential-fallback
    /// strategy) alike.
    #[test]
    fn compiled_projection_matches_the_model(
        docs in prop::collection::vec(document(), 0..20),
        paths in prop::collection::vec(path_string(), 0..4),
    ) {
        let opts = FindOptions::all().project(
            &paths.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        let copts = opts.compile();
        let proj = copts.projection().expect("projection compiled");
        let compiled: Vec<Value> = docs.iter().map(|d| proj.project_one(d)).collect();
        let model: Vec<Value> = docs.iter().map(|d| model_project(d, &paths)).collect();
        byte_identical(&compiled, &model)?;
    }

    /// End to end: the full compiled pipeline (sort, skip, limit, then
    /// project) equals the model's on the same input.
    #[test]
    fn compiled_pipeline_matches_the_model(
        docs in prop::collection::vec(document(), 0..25),
        opts in options(),
    ) {
        let copts = opts.compile();
        let model = model_pipeline(docs.clone(), &opts);

        let mut compiled = docs;
        copts.apply_order(&mut compiled);
        if let Some(proj) = copts.projection() {
            compiled = compiled.iter().map(|d| proj.project_one(d)).collect();
        }

        byte_identical(&compiled, &model)?;
    }

    /// The scan's rows sink returns the handles of the documents an
    /// unprojected find returns and the rows a projected one returns —
    /// for trie-plan projections and for ones with a numeric segment
    /// (`project_one`'s sequential fallback), bounded windows and the
    /// unbounded one, on the scan that builds the segment and on the
    /// ones that find it.
    #[test]
    fn rows_sink_agrees_with_find_with(
        docs in prop::collection::vec(document(), 0..30),
        filter in document_filter(),
        paths in prop::collection::vec(path_string(), 0..4),
        skip in 0usize..6,
        limit in prop_oneof![Just(None), (0usize..12).prop_map(Some)],
    ) {
        let db = Database::new();
        let coll = db.collection("c");
        let stored = docs.into_iter().enumerate().map(|(i, mut d)| {
            d["_id"] = json!(i);
            d
        });
        coll.insert_many(stored.collect()).unwrap();
        let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
        for _ in 0..3 {
            rows_sink_matches_find_with(&coll, &filter, &paths, skip, limit)?;
        }
        // A path that addresses an array element, whatever was drawn.
        let indexed = [paths.as_slice(), &["a.0", "b.1.c"]].concat();
        rows_sink_matches_find_with(&coll, &filter, &indexed, skip, limit)?;
    }

    /// A COLLSCAN through the scan segment returns what the model's
    /// matcher would: on the scan that builds the segment and its
    /// columns, and on the ones that find them there.
    #[test]
    fn column_pruned_scans_match_the_oracle(
        docs in prop::collection::vec(column_document(), 0..40),
        filter in column_filter(),
        window in (0usize..6, 0usize..12),
    ) {
        let db = Database::new();
        let stored: Vec<Value> = docs
            .into_iter()
            .enumerate()
            .map(|(i, mut d)| {
                d["_id"] = json!(i);
                d
            })
            .collect();
        db.collection("c").insert_many(stored.clone()).unwrap();
        for _ in 0..3 {
            reads_match_oracle(&db, &stored, &filter, window)?;
        }
        // One column per listed path that has a plain number to test: one
        // an `f64` holds exactly (2^53 + 1 is left undecided).
        let explained = db.collection("c").explain(&filter).unwrap();
        let exact = |v: &Value| {
            let int = v.as_i64().map(i128::from).or(v.as_u64().map(i128::from));
            v.is_number() && int.is_none_or(|i| i as f64 as i128 == i)
        };
        let has_numbers = |path: &&Value| {
            let keys = || path.as_str().unwrap_or_default().split('.');
            stored.iter().any(|d| {
                let at = keys().try_fold(d, |cur, key| cur.as_object()?.get(key));
                at.is_some_and(exact)
            })
        };
        let listed = explained["column_pruned"].as_array().unwrap();
        let built = listed.iter().filter(has_numbers).count() as u64;
        prop_assert_eq!(db.profiler().counter("column.build"), built);
    }

    /// Windowed reads of a COLLSCAN whose columns prove few rows answer
    /// as the model does and as an unpruned scan of the same rows does,
    /// and a window's walk rules out only rows it reached before the
    /// window filled.
    #[test]
    fn bounded_windows_answer_as_the_unpruned_twin(
        docs in prop::collection::vec(column_document(), 0..60),
        filter in column_filter(),
        windows in prop::collection::vec((0usize..8, 0usize..6), 1..4),
    ) {
        let db = Database::new();
        let stored: Vec<Value> = docs
            .into_iter()
            .enumerate()
            .map(|(i, mut d)| {
                d["_id"] = json!(i);
                d
            })
            .collect();
        let (main, twin) = (db.collection("main"), db.collection("twin"));
        main.insert_many(stored.clone()).unwrap();
        twin.insert_many(stored.iter().map(with_decoys).collect()).unwrap();
        for k in 0..DECOYS {
            twin.count(&json!({ format!("p{k}"): {"$lt": 0} })).unwrap();
        }
        prop_assert!(twin.explain(&filter).unwrap()["column_pruned"] == json!([]));
        let ids = |rows: &[Arc<Value>]| -> Vec<Value> { rows.iter().map(|d| d["_id"].clone()).collect() };
        let matched: Vec<usize> = (0..stored.len()).filter(|&i| model_match(&filter, &stored[i])).collect();
        for (skip, limit) in windows {
            let opts = FindOptions::all().skip(skip).limit(limit);
            let want: Vec<Value> = matched.iter().skip(skip).take(limit).map(|&i| json!(i)).collect();
            let before = db.profiler().counter("column.rows_pruned");
            let got = main.find_with(&filter, &opts).unwrap();
            let pruned = db.profiler().counter("column.rows_pruned") - before;
            prop_assert_eq!(&ids(&got), &want);
            prop_assert_eq!(&ids(&twin.find_with(&filter, &opts).unwrap()), &want);
            // The walk reaches the row that fills the window, or every row.
            let reached = match (limit, matched.get(skip + limit - usize::from(limit > 0))) {
                (0, _) => 0,
                (_, Some(&last)) => last + 1,
                (_, None) => stored.len(),
            };
            let matched_reached = matched.iter().filter(|&&i| i < reached).count();
            prop_assert!(pruned as usize <= reached - matched_reached, "{} pruned of {} reached", pruned, reached);
            let proj = CompiledProjection::compile(&["v", "o.v"]);
            let (handles, rows) = main.find_rows(&filter, &proj, skip, Some(limit)).unwrap();
            prop_assert_eq!(ids(&handles), want);
            let (_, twin_rows) = twin.find_rows(&filter, &proj, skip, Some(limit)).unwrap();
            prop_assert_eq!(rows, twin_rows);
        }
        prop_assert_eq!(main.count(&filter).unwrap(), matched.len());
        prop_assert_eq!(twin.count(&filter).unwrap(), matched.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scans of collections of 0 to about 5 morsels answer, on pools of
    /// width 2 and 3, exactly as on a pool of width 1 (the inline walk)
    /// and as the model does; a fanned-out window rules out at least the
    /// rows the inline walk ruled out, and at most every row the column
    /// rules out.
    #[test]
    fn fanned_out_scans_answer_as_the_inline_walk(
        rows in 0usize..(5 * MORSEL_ROWS + MORSEL_ROWS / 2),
        seed in any::<u64>(),
        bounded in any::<bool>(),
        lo in 0i64..50,
        span in 1i64..50,
        skip in 0usize..3 * MORSEL_ROWS,
        limit in 0usize..3 * MORSEL_ROWS,
    ) {
        let db = Database::new();
        let coll = db.collection("c");
        let docs: Vec<Value> = (0..rows)
            .map(|i| {
                let mut doc = json!({ "_id": i, "w": i % 7 });
                if let Some(v) = fan_value(seed, i) {
                    doc["v"] = v;
                }
                doc
            })
            .collect();
        coll.insert_many(docs.clone()).unwrap();
        let filter = match bounded {
            true => json!({"v": {"$gte": lo, "$lt": lo + span}}),
            false => json!({"$or": [{"v": {"$in": [lo, lo + span]}}, {"w": lo % 7}]}),
        };
        let matched: Vec<&Value> = docs.iter().filter(|d| model_match(&filter, d)).collect();
        let want: Vec<String> = matched.iter().skip(skip).take(limit).map(|d| d.to_string()).collect();
        // Every row a column rules out, from a count's walk of them all.
        let before = db.profiler().counter("column.rows_pruned");
        prop_assert_eq!(coll.count(&filter).unwrap(), matched.len());
        let prunable = db.profiler().counter("column.rows_pruned") - before;

        let [inline, two, three] = pools();
        let (expect, inline_pruned) = inline.install(|| fan_reads(&db, &filter, skip, limit));
        prop_assert_eq!(&expect[..want.len()], &want[..]);
        prop_assert_eq!(expect[expect.len() - 2].clone(), matched.len().to_string());
        prop_assert!(inline_pruned <= prunable);
        prop_assert_eq!(inline.stats().morsel_scatters, 0);
        for pool in [two, three] {
            let scatters = pool.stats().morsel_scatters;
            let (got, pruned) = pool.install(|| fan_reads(&db, &filter, skip, limit));
            prop_assert_eq!(&got, &expect, "width {}", pool.size());
            prop_assert!(
                inline_pruned <= pruned && pruned <= prunable,
                "width {}: {} ruled out, {} inline, {} in all", pool.size(), pruned, inline_pruned, prunable
            );
            // A whole find and a count of more than two morsels fan out:
            // two morsels or more are left after the caller's first.
            let fanned = pool.stats().morsel_scatters - scatters;
            prop_assert!(rows <= 2 * MORSEL_ROWS || fanned >= 2, "width {}: {} scatters", pool.size(), fanned);
        }
    }
}

/// A write between two scans ends the segment's generation: the second
/// scan never serves a row the write removed or moved out of range, and
/// never misses one it added or moved in.
#[test]
fn a_write_between_scans_is_never_missed() {
    let db = Database::new();
    let c = db.collection("c");
    let q = json!({"n": {"$gte": 10, "$lt": 20}});
    let ids = |c: &mp_docstore::Collection| -> Vec<i64> {
        let rows = c.find(&q).unwrap();
        assert_eq!(c.count(&q).unwrap(), rows.len());
        rows.iter().map(|d| d["_id"].as_i64().unwrap()).collect()
    };
    // Warm the segment and its column before every write.
    let warm = |c: &mp_docstore::Collection| {
        let first = ids(c);
        assert_eq!((ids(c), ids(c)), (first.clone(), first.clone()));
        first
    };
    c.insert_many((0..30).map(|i| json!({"_id": i, "n": i})).collect())
        .unwrap();
    assert_eq!(warm(&c), (10..20).collect::<Vec<i64>>());

    c.insert_one(json!({"_id": 100, "n": 15})).unwrap();
    assert!(warm(&c).contains(&100), "inserted row in range");

    c.update_one(&json!({"_id": 3}), &json!({"$set": {"n": 12}}))
        .unwrap();
    assert!(warm(&c).contains(&3), "row moved into range");
    c.update_one(&json!({"_id": 12}), &json!({"$set": {"n": 99}}))
        .unwrap();
    assert!(!warm(&c).contains(&12), "row moved out of range");

    c.delete_one(&json!({"_id": 15})).unwrap();
    assert!(!warm(&c).contains(&15), "deleted row");

    c.clear().unwrap();
    assert!(warm(&c).is_empty(), "cleared collection");
    c.insert_one(json!({"_id": 7, "n": 11})).unwrap();
    assert_eq!(warm(&c), [7]);

    db.drop_collection("c").unwrap();
    let c = db.collection("c");
    assert!(warm(&c).is_empty(), "dropped and re-created");
    c.insert_one(json!({"_id": 8, "n": 19.5})).unwrap();
    assert_eq!(warm(&c), [8]);
    assert!(db.profiler().counter("column.rows_pruned") > 0);
}

/// A segment builds at most eight columns; a ninth path still answers
/// correctly, unpruned, and `explain` says so.
#[test]
fn the_ninth_filter_path_scans_unpruned() {
    let db = Database::new();
    let c = db.collection("c");
    c.insert_many(
        (0..50)
            .map(|i| {
                let fields: Map<String, Value> =
                    (0..9).map(|k| (format!("p{k}"), json!(i + k))).collect();
                Value::Object(fields)
            })
            .collect(),
    )
    .unwrap();
    for k in 0..9 {
        let q = json!({ format!("p{k}"): {"$lt": 10 + k} });
        for _ in 0..3 {
            assert_eq!(c.count(&q).unwrap(), 10, "p{k}");
        }
        let pruned = &c.explain(&q).unwrap()["column_pruned"];
        assert_eq!(pruned.as_array().unwrap().len(), usize::from(k < 8), "p{k}");
    }
    assert_eq!(db.profiler().counter("column.build"), 8);
}

/// The fan-out arm's pools, of width 1 (the inline walk), 2 and 3.
fn pools() -> [&'static WorkPool; 3] {
    static POOLS: OnceLock<[WorkPool; 3]> = OnceLock::new();
    let [a, b, c] = POOLS.get_or_init(|| [WorkPool::new(1), WorkPool::new(2), WorkPool::new(3)]);
    [a, b, c]
}

/// Row `i`'s value at `v` in the fan-out arm: mostly small integers a
/// column decides, and one row in four missing, `null`, a string or an
/// array, which it leaves undecided.
fn fan_value(seed: u64, i: usize) -> Option<Value> {
    let h = ((i as u64) ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    match h % 16 {
        0 => None,
        1 => Some(Value::Null),
        2 => Some(json!((h % 50).to_string())),
        3 => Some(json!([h % 50, 7])),
        _ => Some(json!(h % 50)),
    }
}

/// Every read the fan-out arm compares, as the strings of what it
/// returns, and the rows the windowed find's walk ruled out.
fn fan_reads(db: &Database, filter: &Value, skip: usize, limit: usize) -> (Vec<String>, u64) {
    let coll = db.collection("c");
    let render = |rows: &[Arc<Value>]| rows.iter().map(|d| d.to_string()).collect::<Vec<_>>();
    let pruned = || db.profiler().counter("column.rows_pruned");
    let window = FindOptions::all().skip(skip).limit(limit);
    let before = pruned();
    let mut out = render(&coll.find_with(filter, &window).unwrap());
    let window_pruned = pruned() - before;
    out.extend(render(
        &coll.find_with(filter, &window.project(&["v"])).unwrap(),
    ));
    out.extend(render(
        &coll.find_with(filter, &FindOptions::all()).unwrap(),
    ));
    let proj = CompiledProjection::compile(&["v"]);
    let (handles, rows) = coll.find_rows(filter, &proj, skip, Some(limit)).unwrap();
    out.extend(render(&handles));
    out.extend(rows.iter().map(Value::to_string));
    out.push(coll.count(filter).unwrap().to_string());
    out.push(json!(coll.distinct("v", filter).unwrap()).to_string());
    (out, window_pruned)
}

/// Paths the window arm's twin fills its column slots with.
const DECOYS: usize = 8;

/// `doc` with a plain number at each decoy path.
fn with_decoys(doc: &Value) -> Value {
    let mut doc = doc.clone();
    for k in 0..DECOYS {
        doc[format!("p{k}")] = json!(k);
    }
    doc
}

/// The count gate of per-row column bounds: a window that fills after
/// a few rows rules out only the rows it reached, not every row the
/// column could rule out.
#[test]
fn a_window_stops_the_column_work_where_it_fills() {
    let db = Database::new();
    let c = db.collection("c");
    c.insert_many((0..30_000).map(|i| json!({"_id": i, "n": i % 2})).collect())
        .unwrap();
    let rows = c
        .find_with(&json!({"n": {"$lt": 1}}), &FindOptions::all().limit(10))
        .unwrap();
    let ids: Vec<i64> = rows.iter().map(|d| d["_id"].as_i64().unwrap()).collect();
    assert_eq!(ids, (0..20).step_by(2).collect::<Vec<i64>>());
    assert_eq!(db.profiler().counter("column.build"), 1);
    let pruned = db.profiler().counter("column.rows_pruned");
    assert!(pruned <= 20, "{pruned} rows ruled out for a 10-row window");
}
