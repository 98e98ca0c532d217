//! The query semantics table: rows of (filter, documents, the `_id`s that
//! match), written from MongoDB's documented query semantics. Every row
//! runs through `mp-model` (the test-only model that shares no code with
//! the store) and through each store path — the compiled matcher, a
//! column-pruned COLLSCAN, an index plan, a sorted `find`, and a 4-shard
//! `ShardedCluster`'s `find` and `count` — and all must give the row's
//! answer.
//!
//! Where the store departs from MongoDB on purpose, the row names the
//! departure (DESIGN §10 says what each means; the model departs the same
//! way under the same name) and gives the store's answer beside
//! MongoDB's. Numbers do not depart: integers past 2^53 and mixed
//! int/float compare exactly, as in MongoDB.
//!
//! The file ends with the exact-number regressions: `_id`s and index keys
//! past 2^53 stay distinct, and a column-pruned range keeps a stored
//! number its operand's rounding would have cut off.

use mp_docstore::{
    Collection, Database, DurableDatabase, Filter, FindOptions, ShardedCluster, SortDir,
};
use mp_model::{model_find, model_match, ModelOptions, DEPARTURES};
use serde_json::{json, Value};
use std::sync::Arc;

const TWO_53: u64 = 1 << 53;

/// One row: MongoDB's answer, and the store's where a named departure
/// makes it differ.
struct Row {
    filter: Value,
    docs: Vec<Value>,
    mongo: Vec<i64>,
    departure: Option<(&'static str, Vec<i64>)>,
}

impl Row {
    fn departs(mut self, name: &'static str, store: Vec<i64>) -> Row {
        self.departure = Some((name, store));
        self
    }

    /// What the store and the model answer.
    fn want(&self) -> &[i64] {
        self.departure.as_ref().map_or(&self.mongo, |(_, ids)| ids)
    }

    /// The documents with `_id` 0, 1, 2, … in the order given.
    fn stored(&self) -> Vec<Value> {
        let with_id = |(i, d): (usize, &Value)| {
            let mut d = d.clone();
            d["_id"] = json!(i);
            d
        };
        self.docs.iter().enumerate().map(with_id).collect()
    }
}

fn row(filter: Value, docs: Vec<Value>, mongo: Vec<i64>) -> Row {
    Row {
        filter,
        docs,
        mongo,
        departure: None,
    }
}

fn table() -> Vec<Row> {
    let big = TWO_53 + 1;
    let nested = || {
        vec![
            json!({"a": [1, 2]}),
            json!({"a": [2, 1]}),
            json!({"a": [[1, 2], 3]}),
            json!({"a": 1}),
            json!({"a": [1, 2, 3]}),
        ]
    };
    let nulls = || {
        vec![
            json!({"a": null}),
            json!({}),
            json!({"a": 1}),
            json!({"a": [null, 1]}),
            json!({"b": null}),
        ]
    };
    let through = || {
        vec![
            json!({"a": [{"b": 1}, {"b": 2}]}),
            json!({"a": [{"b": [1, 3]}]}),
            json!({"a": {"b": 1}}),
            json!({"a": [[{"b": 1}]]}),
            json!({"a": [{"c": 1}]}),
        ]
    };
    let bigs = || {
        vec![
            json!({"a": TWO_53}),
            json!({"a": big}),
            json!({"a": TWO_53 as f64}),
            json!({"a": [big]}),
        ]
    };
    let alls = || {
        vec![
            json!({"a": ["x", "y", "z"]}),
            json!({"a": ["x"]}),
            json!({"a": "x"}),
            json!({"a": [["x", "y"]]}),
            json!({"a": ["x", "y"]}),
        ]
    };
    vec![
        // Type bracketing: a range meets only values of its operand's type.
        row(
            json!({"a": {"$gt": 5}}),
            vec![
                json!({"a": 6}),
                json!({"a": "9"}),
                json!({"a": true}),
                json!({"a": null}),
                json!({"a": [7]}),
                json!({"a": 5.5}),
                json!({"a": {"x": 9}}),
            ],
            vec![0, 4, 5],
        ),
        row(
            json!({"a": {"$lt": "b"}}),
            vec![
                json!({"a": "a"}),
                json!({"a": 1}),
                json!({"a": "c"}),
                json!({"a": ["a", 3]}),
                json!({"a": null}),
            ],
            vec![0, 3],
        ),
        row(
            json!({"a": {"$gte": false}}),
            vec![
                json!({"a": true}),
                json!({"a": false}),
                json!({"a": 1}),
                json!({"a": "x"}),
            ],
            vec![0, 1],
        ),
        row(
            json!({"a": {"$lte": {"x": 1}}}),
            vec![
                json!({"a": {"x": 0}}),
                json!({"a": {"x": 2}}),
                json!({"a": 5}),
            ],
            vec![0],
        ),
        row(
            json!({"a": "5"}),
            vec![json!({"a": 5}), json!({"a": "5"})],
            vec![1],
        ),
        // Null versus missing.
        row(json!({"a": null}), nulls(), vec![0, 1, 3, 4])
            .departs("null-is-not-missing", vec![0, 3]),
        row(json!({"a": {"$ne": null}}), nulls(), vec![2])
            .departs("null-is-not-missing", vec![1, 2, 4]),
        row(json!({"a": {"$exists": false}}), nulls(), vec![1, 4]),
        row(
            json!({"a": {"$in": [null, 1]}}),
            nulls(),
            vec![0, 1, 2, 3, 4],
        )
        .departs("null-is-not-missing", vec![0, 2, 3]),
        row(json!({"a": {"$nin": [null]}}), nulls(), vec![2])
            .departs("null-is-not-missing", vec![1, 2, 4]),
        row(json!({"a": {"$gte": null}}), nulls(), vec![0, 1, 3, 4])
            .departs("null-is-not-missing", vec![0, 3]),
        row(
            json!({"a.b": null}),
            vec![
                json!({"a": {"b": null}}),
                json!({"a": {}}),
                json!({"a": [{"b": 1}, {"c": 2}]}),
                json!({"a": 5}),
            ],
            vec![0, 1, 2, 3],
        )
        .departs("null-is-not-missing", vec![0]),
        // Each operator of a path tests everything the path reaches on
        // its own: two elements of one array may meet bounds or
        // equalities no one value meets. And a `$nor` branch that
        // matches nothing rejects nothing.
        row(
            json!({"a": {"$gte": 2, "$lte": 1}}),
            nested(),
            vec![0, 1, 4],
        ),
        row(json!({"a": 1, "$and": [{"a": 2}]}), nested(), vec![0, 1, 4]),
        row(
            json!({"a": {"$exists": false, "$ne": 1}}),
            nulls(),
            vec![1, 4],
        ),
        row(
            json!({"$nor": [{"a": {"$in": []}}]}),
            nulls(),
            vec![0, 1, 2, 3, 4],
        ),
        // Whole-array versus element equality.
        row(json!({"a": [1, 2]}), nested(), vec![0, 2]).departs("nested-arrays-closed", vec![0]),
        row(json!({"a": 2}), nested(), vec![0, 1, 4]),
        row(json!({"a": {"$in": [[1, 2], 3]}}), nested(), vec![0, 2, 4]),
        row(json!({"a.0": 1}), nested(), vec![0, 2, 4]),
        row(
            json!({"a": []}),
            vec![
                json!({"a": []}),
                json!({"a": [[]]}),
                json!({"a": [1]}),
                json!({}),
            ],
            vec![0, 1],
        )
        .departs("nested-arrays-closed", vec![0]),
        row(
            json!({"a": {"$lte": [2]}}),
            vec![json!({"a": [[1], 9]}), json!({"a": [2]}), json!({"a": [3]})],
            vec![0, 1],
        )
        .departs("nested-arrays-closed", vec![1]),
        // $ne / $nin over arrays: no reached value or element may equal.
        row(
            json!({"a": {"$ne": 2}}),
            vec![
                json!({"a": [1, 2]}),
                json!({"a": [1, 3]}),
                json!({"a": 2}),
                json!({}),
                json!({"a": [[2]]}),
            ],
            vec![1, 3, 4],
        ),
        row(
            json!({"a": {"$nin": [2, 3]}}),
            vec![
                json!({"a": [1, 2]}),
                json!({"a": [1, 3]}),
                json!({"a": 2}),
                json!({}),
                json!({"a": [[2]]}),
            ],
            vec![3, 4],
        ),
        row(json!({"a": {"$ne": [1, 2]}}), nested(), vec![1, 2, 3, 4]),
        // Dotted paths through arrays of objects (not through nested arrays).
        row(json!({"a.b": 1}), through(), vec![0, 1, 2]),
        row(json!({"a.b": {"$gt": 1}}), through(), vec![0, 1]),
        row(json!({"a.1.b": 2}), through(), vec![0]),
        // $size, $exists, $type, $all.
        row(
            json!({"a": {"$size": 2}}),
            vec![
                json!({"a": [1, 2]}),
                json!({"a": [[1, 2]]}),
                json!({"a": "ab"}),
                json!({"a": []}),
                json!({"a": [{"x": [1, 2]}]}),
            ],
            vec![0],
        ),
        row(
            json!({"a.x": {"$size": 2}}),
            vec![json!({"a": [{"x": [1, 2]}]}), json!({"a": {"x": [1]}})],
            vec![0],
        ),
        row(
            json!({"a": {"$exists": true}}),
            vec![
                json!({"a": null}),
                json!({}),
                json!({"a": []}),
                json!({"b": {"a": 1}}),
            ],
            vec![0, 2],
        ),
        row(
            json!({"a.b": {"$exists": true}}),
            vec![
                json!({"a": [{"b": null}]}),
                json!({"a": [1, {"c": 1}]}),
                json!({"a": {"b": 0}}),
            ],
            vec![0, 2],
        ),
        row(
            json!({"a": {"$type": "string"}}),
            vec![json!({"a": "x"}), json!({"a": ["x"]}), json!({"a": 1})],
            vec![0, 1],
        )
        .departs("whole-value-operators", vec![0]),
        row(
            json!({"a": {"$type": "array"}}),
            vec![json!({"a": []}), json!({"a": [1]}), json!({"a": 1})],
            vec![0, 1],
        ),
        row(
            json!({"a": {"$type": "double"}}),
            vec![json!({"a": 1.0}), json!({"a": 1}), json!({"a": 2.5})],
            vec![0, 2],
        ),
        row(
            json!({"a": {"$type": "int"}}),
            vec![json!({"a": 1}), json!({"a": big}), json!({"a": 1.0})],
            vec![0],
        )
        .departs("whole-value-operators", vec![0, 1]),
        row(json!({"a": {"$all": ["x", "y"]}}), alls(), vec![0, 4]),
        row(json!({"a": {"$all": ["x"]}}), alls(), vec![0, 1, 2, 4]),
        row(json!({"a": {"$all": [["x", "y"]]}}), alls(), vec![3, 4])
            .departs("all-within-one-value", vec![3]),
        row(
            json!({"a.b": {"$all": [1, 2]}}),
            vec![
                json!({"a": [{"b": 1}, {"b": 2}]}),
                json!({"a": [{"b": [1, 2]}]}),
            ],
            vec![0, 1],
        )
        .departs("all-within-one-value", vec![1]),
        row(
            json!({"a": {"$all": []}}),
            vec![json!({"a": []}), json!({"a": [1]}), json!({"a": 1})],
            vec![],
        )
        .departs("all-within-one-value", vec![0, 1]),
        // Big integers and mixed int/float: exact, never through f64.
        row(json!({"a": big}), bigs(), vec![1, 3]),
        row(json!({"a": TWO_53}), bigs(), vec![0, 2]),
        row(json!({"a": TWO_53 as f64}), bigs(), vec![0, 2]),
        row(json!({"a": {"$gt": TWO_53}}), bigs(), vec![1, 3]),
        row(json!({"a": {"$gte": big}}), bigs(), vec![1, 3]),
        row(json!({"a": {"$lt": big}}), bigs(), vec![0, 2]),
        row(json!({"a": {"$lte": TWO_53 as f64}}), bigs(), vec![0, 2]),
        row(json!({"a": {"$in": [big, 1]}}), bigs(), vec![1, 3]),
        row(json!({"a": {"$nin": [big]}}), bigs(), vec![0, 2]),
        row(
            json!({"a": 1}),
            vec![
                json!({"a": 1.0}),
                json!({"a": 1}),
                json!({"a": [1.0]}),
                json!({"a": "1"}),
                json!({"a": true}),
            ],
            vec![0, 1, 2],
        ),
        row(
            json!({"a": {"$gte": 1, "$lt": 1.5}}),
            vec![
                json!({"a": 1.0}),
                json!({"a": 1.25}),
                json!({"a": 1.5}),
                json!({"a": 2}),
                json!({"a": 0.999}),
            ],
            vec![0, 1],
        ),
        row(
            json!({"a": {"$gt": 1, "$lt": 3}}),
            vec![json!({"a": [0, 4]}), json!({"a": 2}), json!({"a": [2]})],
            vec![0, 1, 2],
        ),
        row(
            json!({"a": {"$gt": i64::MIN}}),
            vec![
                json!({"a": i64::MIN}),
                json!({"a": i64::MIN as f64}),
                json!({"a": 0}),
                json!({"a": u64::MAX}),
            ],
            vec![2, 3],
        ),
        row(
            json!({"a": u64::MAX}),
            vec![
                json!({"a": u64::MAX}),
                json!({"a": 18_446_744_073_709_551_616.0}),
                json!({"a": u64::MAX - 1}),
            ],
            vec![0],
        ),
        row(
            json!({"a": {"$mod": [4, 0]}}),
            vec![
                json!({"a": 8}),
                json!({"a": 8.0}),
                json!({"a": [8]}),
                json!({"a": TWO_53 + 4}),
            ],
            vec![0, 1, 2, 3],
        )
        .departs("whole-value-operators", vec![0, 3]),
        // The string subset, $elemMatch, $not and the logical operators.
        row(
            json!({"a": {"$regex": "^Li"}}),
            vec![
                json!({"a": "LiFePO4"}),
                json!({"a": "FeLi"}),
                json!({"a": ["LiO"]}),
            ],
            vec![0, 2],
        )
        .departs("whole-value-operators", vec![0]),
        row(
            json!({"a": {"$elemMatch": {"b": 1, "c": 2}}}),
            vec![
                json!({"a": [{"b": 1}, {"c": 2}]}),
                json!({"a": [{"b": 1, "c": 2}]}),
                json!({"a": {"b": 1, "c": 2}}),
            ],
            vec![1],
        ),
        row(
            json!({"a": {"$not": {"$gt": 5}}}),
            vec![
                json!({"a": 3}),
                json!({"a": 7}),
                json!({}),
                json!({"a": [1, 9]}),
                json!({"a": "x"}),
            ],
            vec![0, 2, 4],
        ),
        row(
            json!({"$or": [{"a": 1}, {"b": {"$exists": true}}]}),
            vec![json!({"a": 1}), json!({"b": null}), json!({"a": 2})],
            vec![0, 1],
        ),
        row(
            json!({"$nor": [{"a": 1}, {"a": 2}]}),
            vec![
                json!({"a": 1}),
                json!({"a": [2, 3]}),
                json!({"a": 3}),
                json!({}),
            ],
            vec![2, 3],
        ),
        row(
            json!({"$and": [{"a": {"$gt": 1}}, {"a": {"$lt": 3}}]}),
            vec![json!({"a": [0, 4]}), json!({"a": 2}), json!({"a": [2]})],
            vec![0, 1, 2],
        ),
        // Objects compare as documents.
        row(
            json!({"a": {"x": 1, "y": 2}}),
            vec![
                json!({"a": {"y": 2, "x": 1}}),
                json!({"a": {"x": 1, "y": 2}}),
                json!({"a": {"x": 1}}),
            ],
            vec![1],
        )
        .departs("sorted-key-objects", vec![0, 1]),
    ]
}

fn ids<'a>(docs: impl IntoIterator<Item = &'a Value>) -> Vec<i64> {
    docs.into_iter()
        .map(|d| d["_id"].as_i64().unwrap())
        .collect()
}

fn sorted(mut ids: Vec<i64>) -> Vec<i64> {
    ids.sort_unstable();
    ids
}

fn collection(docs: &[Value], indexed: &[&str]) -> Arc<Collection> {
    let c = Database::new().collection("c");
    for path in indexed {
        c.create_index(path, false).unwrap();
    }
    c.insert_many(docs.to_vec()).unwrap();
    c
}

/// The sort a row's sorted `find` uses: its first path ascending, then
/// `_id`, so the order is total.
fn sort_of(paths: &[&str]) -> (FindOptions, ModelOptions) {
    let first = paths.first().copied().unwrap_or("_id");
    let opts = FindOptions::all()
        .sort_by(first, SortDir::Asc)
        .sort_by("_id", SortDir::Asc);
    let model = ModelOptions {
        sort: vec![(first.to_string(), false), ("_id".to_string(), false)],
        ..ModelOptions::default()
    };
    (opts, model)
}

#[test]
fn every_path_answers_every_row_of_the_table() {
    for row in table() {
        let (q, docs, want) = (&row.filter, row.stored(), row.want());
        let parsed = Filter::parse(q).unwrap();
        let paths: Vec<&str> = parsed.touched_paths();
        let at = |path: &str| format!("{q} by {path}");

        let model = ids(docs.iter().filter(|d| model_match(q, d)));
        assert_eq!(model, want, "{}", at("the model"));
        let cf = parsed.compile();
        let compiled = ids(docs.iter().filter(|d| cf.matches(d)));
        assert_eq!(compiled, want, "{}", at("the compiled filter"));

        let plain = collection(&docs, &[]);
        for pass in 0..3 {
            let found = plain.find(q).unwrap();
            assert_eq!(
                ids(found.iter().map(|d| &**d)),
                want,
                "{} {pass}",
                at("COLLSCAN")
            );
            assert_eq!(
                plain.count(q).unwrap(),
                want.len(),
                "{}",
                at("COLLSCAN count")
            );
        }

        let indexed = collection(&docs, &paths);
        let found = indexed.find(q).unwrap();
        let plan = indexed.explain(q).unwrap()["plan"].clone();
        let by_index = at(&format!("an index plan ({plan})"));
        assert_eq!(sorted(ids(found.iter().map(|d| &**d))), want, "{by_index}");
        assert_eq!(indexed.count(q).unwrap(), want.len(), "{by_index}");

        let (opts, model_opts) = sort_of(&paths);
        let model_order = ids(&model_find(&docs, q, &model_opts));
        for c in [&plain, &indexed] {
            let found = c.find_with(q, &opts).unwrap();
            assert_eq!(
                ids(found.iter().map(|d| &**d)),
                model_order,
                "{}",
                at("a sorted find")
            );
        }

        let cluster = ShardedCluster::new(4, "_id");
        for d in &docs {
            cluster.insert_one("c", d.clone()).unwrap();
        }
        let found = cluster.find("c", q).unwrap();
        assert_eq!(
            sorted(ids(found.iter().map(|d| &**d))),
            want,
            "{}",
            at("4 shards")
        );
        assert_eq!(
            cluster.count("c", q).unwrap(),
            want.len(),
            "{}",
            at("4 shards")
        );
    }
}

/// An analyzer Error claims that no document matches, and the API
/// refuses the filter on it: every row MongoDB answers with a document
/// lints without one.
#[test]
fn every_row_a_document_matches_lints_without_an_error() {
    for row in table().iter().filter(|row| !row.mongo.is_empty()) {
        let diags = mp_lint::analyze_query(&row.filter);
        assert!(!mp_lint::has_errors(&diags), "{}: {diags:?}", row.filter);
    }
}

/// Every departure a row names is one the model implements and DESIGN
/// §10 records, and each row that names one differs from MongoDB there.
#[test]
fn every_departure_is_named_in_the_model_and_the_design() {
    let design = include_str!("../../../DESIGN.md");
    for row in table() {
        if let Some((name, store)) = &row.departure {
            assert!(DEPARTURES.contains(name), "{name} is not a model departure");
            assert!(
                design.contains(&format!("`{name}`")),
                "{name} is not in DESIGN"
            );
            assert_ne!(store, &row.mongo, "{} departs in name only", row.filter);
        }
    }
    for name in DEPARTURES {
        assert!(
            design.contains(&format!("`{name}`")),
            "{name} is not in DESIGN"
        );
    }
}

/// The mixed-type sort order, ascending and descending, on a plain and
/// an indexed collection: MongoDB's order where the store keeps it, the
/// named departures where it does not.
#[test]
fn the_mixed_type_sort_order() {
    let keys = [
        None,
        Some(json!(null)),
        Some(json!(3)),
        Some(json!(2.5)),
        Some(json!(TWO_53 + 1)),
        Some(json!(TWO_53 as f64)),
        Some(json!("b")),
        Some(json!("a")),
        Some(json!({"x": 1})),
        Some(json!([0, 5])),
        Some(json!([])),
        Some(json!(true)),
        Some(json!(false)),
        Some(json!(TWO_53)),
        Some(json!({"y": 0, "a": 2})),
    ];
    let docs: Vec<Value> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| match k {
            Some(k) => json!({"_id": i, "k": k}),
            None => json!({"_id": i}),
        })
        .collect();
    // MongoDB sorts an array by its least element ascending and its
    // greatest descending, an empty array below null, and objects by
    // fields in stored order. Ties (null and missing; 2^53 and 2^53.0)
    // fall to `_id`.
    let mongo_asc = [10, 0, 1, 9, 3, 2, 5, 13, 4, 7, 6, 8, 14, 12, 11];
    let store_asc = [0, 1, 3, 2, 5, 13, 4, 7, 6, 14, 8, 10, 9, 12, 11];
    let mongo_desc = [11, 12, 14, 8, 6, 7, 4, 5, 13, 9, 2, 3, 0, 1, 10];
    let store_desc = [11, 12, 9, 10, 8, 14, 6, 7, 4, 5, 13, 2, 3, 0, 1];
    assert_ne!(mongo_asc, store_asc);
    assert_ne!(mongo_desc, store_desc);
    for name in ["strict-sort-keys", "sorted-key-objects"] {
        assert!(DEPARTURES.contains(&name));
    }
    for (desc, want) in [(false, store_asc), (true, store_desc)] {
        let dir = if desc { SortDir::Desc } else { SortDir::Asc };
        let opts = FindOptions::all()
            .sort_by("k", dir)
            .sort_by("_id", SortDir::Asc);
        let model_opts = ModelOptions {
            sort: vec![("k".into(), desc), ("_id".into(), false)],
            ..ModelOptions::default()
        };
        assert_eq!(ids(&model_find(&docs, &json!({}), &model_opts)), want);
        for indexed in [&[][..], &["k"][..]] {
            let c = collection(&docs, indexed);
            let found = c.find_with(&json!({}), &opts).unwrap();
            let got = ids(found.iter().map(|d| &**d));
            assert_eq!(got, want, "desc {desc}, indexed {indexed:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Exact numbers: the regressions
// ---------------------------------------------------------------------------

/// `_id`s 2^53 and 2^53 + 1 are two keys, inserted one by one or built
/// in one bulk insert, and `find` by either returns its own document.
#[test]
fn ids_past_two_to_the_53_are_distinct() {
    let (low, high) = (json!(TWO_53), json!(TWO_53 + 1));
    let one_by_one = Database::new().collection("c");
    one_by_one.insert_one(json!({"_id": high})).unwrap();
    one_by_one.insert_one(json!({"_id": low})).unwrap();
    let bulk = Database::new().collection("c");
    bulk.insert_many(vec![json!({"_id": high}), json!({"_id": low})])
        .unwrap();
    for c in [&one_by_one, &bulk] {
        assert_eq!(c.len(), 2);
        for id in [&low, &high] {
            let found = c.find(&json!({"_id": id})).unwrap();
            assert_eq!(found.len(), 1, "{id}");
            assert_eq!(&found[0]["_id"], id);
        }
    }
    // The duplicate that really is one is still refused.
    assert!(one_by_one
        .insert_one(json!({"_id": TWO_53 as f64}))
        .is_err());
}

/// On a collection holding only 2^53 + 1 under `k`, `{k: 2^53}` counts
/// nothing: by scan, through an index filled one by one, and through an
/// index the bulk build made.
#[test]
fn equality_on_a_big_integer_counts_only_itself() {
    let doc = json!({"k": TWO_53 + 1});
    let scan = collection(std::slice::from_ref(&doc), &[]);
    let bulk = collection(std::slice::from_ref(&doc), &["k"]);
    let one_by_one = Database::new().collection("c");
    one_by_one.create_index("k", false).unwrap();
    one_by_one.insert_one(json!({"seed": 0})).unwrap();
    one_by_one.insert_one(doc).unwrap();
    for (name, c) in [
        ("scan", &scan),
        ("bulk", &bulk),
        ("one by one", &one_by_one),
    ] {
        for _ in 0..3 {
            assert_eq!(c.count(&json!({"k": TWO_53})).unwrap(), 0, "{name}");
            assert_eq!(c.count(&json!({"k": TWO_53 as f64})).unwrap(), 0, "{name}");
            assert_eq!(c.count(&json!({"k": TWO_53 + 1})).unwrap(), 1, "{name}");
        }
    }
    let plan = |c: &Collection| c.explain(&json!({"k": TWO_53})).unwrap()["plan"].clone();
    assert_eq!(plan(&bulk), json!("INDEX_EQ"));
    assert_eq!(plan(&one_by_one), json!("INDEX_EQ"));
}

/// `{k: {$lt: 2^53 + 1}}` keeps a stored 2^53 on a pruned scan: the
/// operand has no exact `f64`, so it sets no bound (rounded to 2^53 and
/// open, it would have pruned the row). Beside a bound that does prune,
/// it still sets none.
#[test]
fn a_pruned_range_keeps_what_its_operand_rounds_onto() {
    let db = Database::new();
    let c = db.collection("c");
    c.insert_many(vec![
        json!({"_id": 0, "k": TWO_53}),
        json!({"_id": 1, "k": TWO_53 + 1}),
        json!({"_id": 2, "k": 1}),
        json!({"_id": 3, "k": TWO_53 + 2}),
        json!({"_id": 4, "k": -1}),
    ])
    .unwrap();
    for (q, want, pruned) in [
        (json!({"k": {"$lt": TWO_53 + 1}}), vec![0, 2, 4], json!([])),
        (
            json!({"k": {"$lt": TWO_53 + 1, "$gt": 0}}),
            vec![0, 2],
            json!(["k"]),
        ),
    ] {
        for _ in 0..3 {
            let found = c.find(&q).unwrap();
            assert_eq!(ids(found.iter().map(|d| &**d)), want, "{q}");
            assert_eq!(c.count(&q).unwrap(), want.len(), "{q}");
        }
        assert_eq!(c.explain(&q).unwrap()["column_pruned"], pruned, "{q}");
    }
    assert!(db.profiler().counter("column.rows_pruned") > 0);
}

// ---------------------------------------------------------------------------
// `_id`s that are arrays, and writes the backfill limit refuses
// ---------------------------------------------------------------------------

/// An array `_id` is refused, as MongoDB refuses it — by `insert_one`,
/// by a bulk build and one-by-one insertion at the same document with
/// the same error, by an upsert's seed and by an update — so `{_id: 1}`
/// through the `_id` map and `{_id: {$in: [1]}}` through a scan never
/// disagree about one.
#[test]
fn an_array_id_is_refused() {
    let batch = || {
        vec![
            json!({"_id": 0}),
            json!({"_id": 1}),
            json!({"_id": [1, 2]}),
            json!({"_id": 3}),
        ]
    };
    let bulk = Database::new().collection("c");
    let one_by_one = Database::new().collection("c");
    one_by_one.insert_one(json!({"_id": "seed"})).unwrap();
    let refused = |c: &Collection| c.insert_many(batch()).unwrap_err().to_string();
    let why = refused(&bulk);
    assert!(why.contains("_id cannot be an array"), "{why}");
    assert_eq!(refused(&one_by_one), why);
    assert_eq!((bulk.len(), one_by_one.len()), (2, 3));

    let c = bulk;
    assert!(c.insert_one(json!({"_id": [7]})).is_err());
    assert!(c.insert_one(json!({"_id": []})).is_err());
    assert!(c
        .upsert(&json!({"_id": [4, 5]}), &json!({"$set": {"x": 1}}))
        .is_err());
    assert!(c
        .upsert(&json!({"x": 9}), &json!({"$set": {"_id": [6]}}))
        .is_err());
    assert!(c
        .update_one(&json!({"_id": 1}), &json!({"$set": {"_id": [7, 8]}}))
        .is_err());
    // An object `_id` holding an array is a key like any other.
    let object = json!({"_id": {"k": [1, 2]}});
    c.insert_one(object.clone()).unwrap();
    let stored = [json!({"_id": 0}), json!({"_id": 1}), object];
    assert_eq!(c.len(), stored.len());
    for q in [
        json!({"_id": 1}),
        json!({"_id": {"$in": [1]}}),
        json!({"_id": {"k": [1, 2]}}),
        json!({"_id": 7}),
        json!({"_id": 2}),
        json!({"_id": 6}),
    ] {
        let model = model_find(&stored, &q, &ModelOptions::default());
        let found = c.find(&q).unwrap();
        assert_eq!(
            found.iter().map(|d| &**d).collect::<Vec<_>>(),
            model.iter().collect::<Vec<_>>(),
            "{q}"
        );
    }
}

/// An update never changes a document's `_id`, as MongoDB refuses to:
/// `$set` and `$rename` onto it, `$unset` of it and a replacement that
/// names another are refused and leave the collection as it was,
/// whether the plan that found the document was a scan, an index or the
/// `_id` map, and through a reopened durable store too. Otherwise the
/// `_id` map and the documents disagree: `{_id: 2}` through the map and
/// `{_id: {$in: [2]}}` through a scan found one document and two. An
/// upsert's insert may still name its `_id` (above), and an `_id` may
/// change form without changing its key (`1` to `1.0`).
#[test]
fn an_update_never_changes_an_id() {
    let docs = [
        json!({"_id": 1, "x": "a", "y": 2}),
        json!({"_id": 2, "x": "b"}),
    ];
    let refused = [
        json!({"$set": {"_id": 2}}),
        json!({"$set": {"_id": 7}}),
        json!({"$rename": {"y": "_id"}}),
        json!({"$unset": {"_id": ""}}),
        json!({"_id": 2, "y": 3}),
        json!({"_id": 7}),
    ];
    // `y` is not indexed, `x` is.
    let plans = [
        (json!({"y": 2}), "COLLSCAN"),
        (json!({"x": "a"}), "INDEX_EQ"),
        (json!({"_id": 1}), "ID_LOOKUP"),
    ];
    let state = |c: &Collection| c.find(&json!({})).unwrap();
    let try_all = |c: &Collection| {
        let before = state(c);
        for (filter, plan) in &plans {
            assert_eq!(c.explain(filter).unwrap()["plan"], *plan, "{filter}");
            for u in &refused {
                let why = c.update_one(filter, u).unwrap_err().to_string();
                assert!(why.contains("_id is immutable"), "{filter} {u}: {why}");
                assert!(c.update_many(filter, u).is_err(), "{filter} {u}");
                assert!(c.upsert(filter, u).is_err(), "{filter} {u}");
                let sort = FindOptions::all().sort_by("_id", SortDir::Asc);
                let found = c.find_one_and_update(filter, u, Some(&sort), true);
                assert!(found.is_err(), "{filter} {u}");
            }
        }
        assert_eq!(state(c), before);
        for q in [json!({"_id": 2}), json!({"_id": {"$in": [2]}})] {
            assert_eq!(c.find(&q).unwrap().len(), 1, "{q}");
        }
    };

    let c = collection(&docs, &["x"]);
    try_all(&c);
    // The same key in another form is no change of `_id`.
    let kept = c.update_one(&json!({"_id": 1}), &json!({"$set": {"_id": 1.0, "z": 1}}));
    assert_eq!(kept.unwrap().modified, 1);
    for q in [
        json!({"_id": 1}),
        json!({"_id": {"$in": [1]}}),
        json!({"z": 1}),
    ] {
        assert_eq!(c.find(&q).unwrap().len(), 1, "{q}");
    }

    // Through the write-ahead log: the refused updates are logged
    // before they are applied, and replay refuses them again.
    let dir = std::env::temp_dir().join(format!("mp-semantics-id-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live = {
        let d = DurableDatabase::open(&dir).unwrap();
        let c = d.database().collection("c");
        c.create_index("x", false).unwrap();
        c.insert_many(docs.to_vec()).unwrap();
        try_all(&c);
        state(&c)
    };
    let reopened = DurableDatabase::open(&dir).unwrap();
    let c = reopened.database().collection("c");
    assert_eq!(state(&c), live);
    try_all(&c);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A projection by `a.2000000` reads `{"a": {"2000000": 1}}` by key,
/// and the write would pad 2,000,001 elements: refused before it makes
/// anything, so the row is `{"_id": 1}`, as `mp-model` projects it
/// (departure `backfill-limit`).
#[test]
fn a_projection_the_backfill_limit_refuses_writes_nothing() {
    let docs = [json!({"_id": 1, "a": {"2000000": 1}})];
    let c = collection(&docs, &[]);
    let model = ModelOptions {
        projection: Some(vec!["a.2000000".into()]),
        ..ModelOptions::default()
    };
    assert!(DEPARTURES.contains(&"backfill-limit"));
    let want = vec![json!({"_id": 1})];
    assert_eq!(model_find(&docs, &json!({}), &model), want);
    let opts = FindOptions::all().project(&["a.2000000"]);
    let found = c.find_with(&json!({}), &opts).unwrap();
    let rows: Vec<&Value> = found.iter().map(|d| &**d).collect();
    assert_eq!(rows, want.iter().collect::<Vec<_>>());
}
