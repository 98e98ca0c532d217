//! Property test tying the static analyzer to the runtime matcher: any
//! filter mp-lint reports no diagnostics for must parse and must never
//! panic in `CompiledFilter::matches`, against arbitrary documents. (mp-lint is a
//! dev-dependency here — a dev-only cycle cargo allows.)

use mp_docstore::Filter;
use mp_lint::{analyze_query, analyze_query_with_schema, CollectionSchema, TypeSet};
use proptest::prelude::*;
use serde_json::{json, Value};

/// Strategy: a small scalar JSON value.
fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        (-50i64..50).prop_map(Value::from),
        (-10.0f64..10.0).prop_map(|f| json!(f)),
        "[a-z]{0,6}".prop_map(Value::from),
    ]
}

/// Strategy: one field predicate — a literal equality or an operator doc.
fn predicate() -> impl Strategy<Value = Value> {
    prop_oneof![
        scalar(),
        scalar().prop_map(|v| json!({ "$gt": v })),
        scalar().prop_map(|v| json!({ "$lte": v })),
        (scalar(), scalar()).prop_map(|(a, b)| json!({"$gte": a, "$lt": b})),
        prop::collection::vec(scalar(), 0..3).prop_map(|vs| json!({ "$in": vs })),
        any::<bool>().prop_map(|b| json!({ "$exists": b })),
        (0usize..4).prop_map(|n| json!({ "$size": n })),
        scalar().prop_map(|v| json!({"$not": {"$eq": v}})),
    ]
}

/// Strategy: a conjunction over a handful of field names.
fn field_conj() -> impl Strategy<Value = Value> {
    prop::collection::btree_map(
        prop_oneof![
            Just("a".to_string()),
            Just("n".to_string()),
            Just("tags".to_string()),
            Just("nested.k".to_string())
        ],
        predicate(),
        0..3,
    )
    .prop_map(|m| Value::Object(m.into_iter().collect()))
}

/// Strategy: a filter, possibly with a `$or` branch.
fn filter() -> impl Strategy<Value = Value> {
    (field_conj(), prop::collection::vec(field_conj(), 0..2)).prop_map(|(base, ors)| {
        let mut out = base;
        if !ors.is_empty() {
            out["$or"] = Value::Array(ors);
        }
        out
    })
}

/// Strategy: a document shaped like what the filters above touch.
fn document() -> impl Strategy<Value = Value> {
    (
        scalar(),
        -50i64..50,
        prop::collection::vec("[a-z]{1,3}", 0..3),
        scalar(),
    )
        .prop_map(|(a, n, tags, k)| {
            json!({
                "a": a,
                "n": n,
                "tags": tags,
                "nested": {"k": k},
            })
        })
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

    /// Error-severity contradictions really are always-false at runtime.
    #[test]
    fn contradictions_never_match(lo in -50i64..50, span in 1i64..20, doc in document()) {
        let q = json!({"n": {"$gt": lo + span, "$lt": lo}});
        let diags = analyze_query(&q);
        prop_assert!(diags.iter().any(|d| d.code == "Q002"), "{diags:?}");
        prop_assert!(!Filter::parse(&q).expect("parses").compile().matches(&doc));
    }

    /// Schema-aware type-mismatch errors imply zero matches against
    /// documents that conform to the schema.
    #[test]
    fn type_mismatches_never_match_conforming_docs(s in "[a-z]{1,6}", doc in document()) {
        let schema = CollectionSchema {
            sampled: 1,
            total_docs: 1,
            ..CollectionSchema::with_fields(
                "c",
                [("n", TypeSet::INT)],
                ["n"],
            )
        };
        // `n` is an int field in both schema and generated documents, so a
        // string comparison is flagged and never matches.
        let q = json!({"n": {"$gt": s}});
        let diags = analyze_query_with_schema(&q, &schema, &std::collections::BTreeMap::new());
        prop_assert!(diags.iter().any(|d| d.code == "Q001"), "{diags:?}");
        prop_assert!(!Filter::parse(&q).expect("parses").compile().matches(&doc));
    }
}
