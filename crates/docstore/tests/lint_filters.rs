//! Property tests tying the static analyzer to the runtime matcher and
//! to `mp-model`: any filter mp-lint reports no parse error for must
//! parse and must never panic in `CompiledFilter::matches`, and any
//! Error mp-lint reports about a filter that parses is a proof that no
//! document matches it. (mp-lint is a dev-dependency here — a dev-only
//! cycle cargo allows.)

use mp_docstore::Filter;
use mp_lint::{analyze_query, analyze_query_with_schema, CollectionSchema, Severity, TypeSet};
use mp_model::model_match;
use proptest::prelude::*;
use serde_json::{json, Map, Value};

/// Strategy: a small scalar JSON value, from domains small enough that
/// stored values and operands often meet.
fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        (-4i64..4).prop_map(Value::from),
        (-4.0f64..4.0).prop_map(|f| json!(f)),
        "[a-c]{0,2}".prop_map(Value::from),
    ]
}

fn scalars(len: std::ops::Range<usize>) -> impl Strategy<Value = Value> {
    prop::collection::vec(scalar(), len).prop_map(Value::Array)
}

/// Strategy: a stored value — a scalar, an array, or an array of arrays.
fn stored() -> impl Strategy<Value = Value> {
    prop_oneof![
        scalar(),
        scalars(0..4),
        prop::collection::vec(scalars(0..3), 1..3).prop_map(Value::Array),
    ]
}

/// Strategy: maybe a value; `None` leaves the field out.
fn field(v: impl Strategy<Value = Value> + 'static) -> impl Strategy<Value = Option<Value>> {
    prop_oneof![Just(None), v.prop_map(Some)]
}

/// An object of the given members, `None`s left out.
fn object<'k>(members: impl IntoIterator<Item = (&'k str, Option<Value>)>) -> Value {
    let present = members
        .into_iter()
        .filter_map(|(k, v)| Some((k.to_string(), v?)));
    Value::Object(present.collect::<Map<String, Value>>())
}

/// Strategy: an object that may hold `k`.
fn holder() -> impl Strategy<Value = Value> {
    field(stored()).prop_map(|k| object([("k", k)]))
}

/// Strategy: a document shaped like what the filters below touch: each
/// field may be missing, null, a scalar or an array, and `runs` may be
/// an array of objects, which a dotted path walks element by element.
fn document() -> impl Strategy<Value = Value> {
    (
        field(stored()),
        field(stored()),
        field(holder()),
        field(prop_oneof![
            prop::collection::vec(holder(), 0..3).prop_map(Value::Array),
            stored(),
        ]),
    )
        .prop_map(|(a, n, nested, runs)| {
            object([("a", a), ("n", n), ("nested", nested), ("runs", runs)])
        })
}

fn comparison() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("$eq"),
        Just("$ne"),
        Just("$gt"),
        Just("$gte"),
        Just("$lt"),
        Just("$lte"),
    ]
}

/// Strategy: an operator beside `$exists: false`, with an operand.
fn beside_absent() -> impl Strategy<Value = Value> {
    (
        prop_oneof![
            Just("$eq"),
            Just("$ne"),
            Just("$gt"),
            Just("$in"),
            Just("$nin"),
            Just("$not"),
            Just("$size"),
            Just("$type"),
        ],
        scalar(),
    )
        .prop_map(|(op, v)| {
            let operand = match op {
                "$in" | "$nin" => json!([v]),
                "$not" => json!({ "$gt": v }),
                "$size" => json!(1),
                "$type" => json!("null"),
                _ => v,
            };
            object([("$exists", Some(json!(false))), (op, Some(operand))])
        })
}

/// Strategy: one field predicate — a literal or an operator document.
fn predicate() -> impl Strategy<Value = Value> {
    prop_oneof![
        scalar(),
        scalars(0..3),
        (comparison(), scalar()).prop_map(|(op, v)| object([(op, Some(v))])),
        (comparison(), scalar(), comparison(), scalar())
            .prop_map(|(o1, v1, o2, v2)| object([(o1, Some(v1)), (o2, Some(v2))])),
        scalars(0..3).prop_map(|vs| json!({ "$in": vs })),
        scalars(0..3).prop_map(|vs| json!({ "$nin": vs })),
        scalars(0..3).prop_map(|vs| json!({ "$all": vs })),
        (0usize..4).prop_map(|n| json!({ "$size": n })),
        any::<bool>().prop_map(|b| json!({ "$exists": b })),
        beside_absent(),
        scalar().prop_map(|v| json!({"$not": {"$eq": v}})),
        scalars(0..2).prop_map(|vs| json!({"$elemMatch": {"k": {"$in": vs}}})),
        (comparison(), scalar())
            .prop_map(|(op, v)| json!({"$elemMatch": {"k": object([(op, Some(v))])}})),
    ]
}

fn path() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("n".to_string()),
        Just("nested.k".to_string()),
        Just("runs".to_string()),
        Just("runs.k".to_string())
    ]
}

/// Strategy: a condition a second one on the same path may seem to
/// exclude — an equality, a bound, a `$size`.
fn pairable() -> impl Strategy<Value = Value> {
    prop_oneof![
        scalar(),
        (comparison(), scalar()).prop_map(|(op, v)| object([(op, Some(v))])),
        (0usize..4).prop_map(|n| json!({ "$size": n })),
    ]
}

/// Strategy: a conjunction over a handful of field names.
fn field_conj() -> impl Strategy<Value = Value> {
    prop::collection::btree_map(path(), predicate(), 0..3)
        .prop_map(|m| Value::Object(m.into_iter().collect()))
}

/// Strategy: a filter, possibly with `$and`, `$or` and `$nor` clauses;
/// half the time two of the `$and` clauses constrain one path.
fn filter() -> impl Strategy<Value = Value> {
    let clauses = |n| prop::collection::vec(field_conj(), 0..n);
    let pair = (path(), pairable(), pairable())
        .prop_map(|(p, x, y)| vec![object([(&*p, Some(x))]), object([(&*p, Some(y))])]);
    let pair = prop_oneof![Just(Vec::new()), pair];
    (field_conj(), clauses(3), pair, clauses(3), clauses(2)).prop_map(
        |(base, mut and, pair, or, nor)| {
            and.extend(pair);
            let mut out = base;
            for (op, list) in [("$and", and), ("$or", or), ("$nor", nor)] {
                if !list.is_empty() {
                    out[op] = Value::Array(list);
                }
            }
            out
        },
    )
}

proptest! {
    /// Filters the schema-free analyzer passes clean must parse and match
    /// without panicking.
    #[test]
    fn lint_clean_filters_never_panic(q in filter(), doc in document()) {
        let diags = analyze_query(&q);
        // Q000 means the filter does not parse ($or: [] is generated
        // sometimes); everything else must parse.
        if diags.iter().any(|d| d.code == "Q000") {
            prop_assert!(Filter::parse(&q).is_err());
            return Ok(());
        }
        let f = Filter::parse(&q).expect("lint found no parse errors");
        let _ = f.compile().matches(&doc); // must not panic, any verdict is fine
        let _ = f.touched_paths();
    }

    /// A type mismatch with the sampled schema is a warning: the
    /// documents that conform to the sample never match it, but a
    /// document outside the sample may hold the operand's type.
    #[test]
    fn type_mismatches_are_warnings_about_the_sample(s in "[a-z]{1,6}", n in -50i64..50) {
        let schema = CollectionSchema {
            sampled: 1,
            total_docs: 1,
            ..CollectionSchema::with_fields("c", [("n", TypeSet::INT)], ["n"])
        };
        let q = json!({"n": {"$lt": s}});
        let diags = analyze_query_with_schema(&q, &schema, &std::collections::BTreeMap::new());
        prop_assert!(diags.iter().any(|d| d.code == "Q001"), "{diags:?}");
        prop_assert!(!mp_lint::has_errors(&diags), "{diags:?}");
        let f = Filter::parse(&q).expect("parses").compile();
        let (conforming, unsampled) = (json!({ "n": n }), json!({"n": ""}));
        prop_assert!(!f.matches(&conforming));
        prop_assert!(f.matches(&unsampled));
    }
}

/// Documents that meet each operator on its own wherever one can: the
/// empty document, and one whose every field holds every integer and
/// string operand `scalar` makes, values past both ends of each type,
/// and (in `runs`) objects whose `k` arrays have every generated
/// `$size`. A rule that calls two conditions on one path exclusive when
/// two elements of an array can meet them is caught here.
fn witnesses() -> [Value; 2] {
    let mut every = vec![
        json!(null),
        json!(false),
        json!(true),
        json!(-9.5),
        json!(9.5),
    ];
    every.extend((-9..10).map(Value::from));
    every.extend(["", "zz", "a", "b", "c"].map(Value::from));
    every.extend(
        ["a", "b", "c"]
            .iter()
            .flat_map(|x| ["a", "b", "c"].map(|y| json!(x.to_string() + y))),
    );
    let every = Value::Array(every);
    let sized = (0..4).map(|n| json!({ "k": vec![1; n] }));
    let runs: Vec<Value> = std::iter::once(json!({ "k": every }))
        .chain(sized)
        .collect();
    [
        json!({}),
        json!({"a": every, "n": every, "nested": {"k": every}, "runs": runs}),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The soundness property: an Error other than Q000 says no document
    /// can match, so neither `mp-model` nor the compiled filter matches
    /// a generated document or a witness.
    #[test]
    fn lint_errors_are_sound(q in filter(), docs in prop::collection::vec(document(), 1..6)) {
        let diags = analyze_query(&q);
        if !diags.iter().any(|d| d.severity == Severity::Error && d.code != "Q000") {
            return Ok(());
        }
        let compiled = Filter::parse(&q).expect("only Q000 refuses to parse").compile();
        for doc in docs.iter().chain(&witnesses()) {
            prop_assert!(!model_match(&q, doc), "the model matches {doc}: {diags:?}");
            prop_assert!(!compiled.matches(doc), "the store matches {doc}: {diags:?}");
        }
    }
}
