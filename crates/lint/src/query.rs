//! Pass 1: static analysis of Mongo-style filter documents.
//!
//! Codes:
//! - `Q000` (error): filter does not parse.
//! - `Q001` (warning): an operand of a type the field does not hold in
//!   the sampled documents. A sample proves nothing about the documents
//!   outside it, so this never refuses a query.
//! - `Q002` (error): a conjunct of the whole filter that no document can
//!   satisfy under DESIGN §10's semantics: `$in: []`; two different
//!   `$size`s on an undotted path; `$exists: false` beside an operator
//!   that needs a reached value. A `$or`/`$nor` branch is never checked:
//!   a dead branch does not make the filter dead. Every rule is held to
//!   `mp-docstore`'s `lint_filters` soundness property.
//! - `Q003` (warning): unknown field, with did-you-mean suggestions against
//!   the schema and the API's field aliases.
//! - `Q004` (warning): no constrained field is indexed — the query is a full
//!   collection scan.
//! - `P001` (warning, pass 5's code): the root scope carries no sargable
//!   predicate (`$eq`, `$in`, or a range bound), or is a pure `$or`/`$nor`
//!   disjunction the planner treats as opaque — whatever indexes exist,
//!   the only access path is a walk over every document. `Q004` is fixed
//!   by creating an index, `P001` only by reshaping the query.

use std::collections::BTreeMap;

use mp_docstore::query::Predicate;
use mp_docstore::Filter;
use serde_json::Value;

use crate::diagnostics::Diagnostic;
use crate::schema::{CollectionSchema, TypeSet};

/// Analyze a filter without schema context: `Q000` and `Q002`.
pub fn analyze_query(raw: &Value) -> Vec<Diagnostic> {
    analyze_inner(raw, None, &BTreeMap::new())
}

/// Analyze a filter against an inferred collection schema. `aliases` maps
/// user-facing alias → stored path (used for did-you-mean suggestions).
pub fn analyze_query_with_schema(
    raw: &Value,
    schema: &CollectionSchema,
    aliases: &BTreeMap<String, String>,
) -> Vec<Diagnostic> {
    analyze_inner(raw, Some(schema), aliases)
}

fn analyze_inner(
    raw: &Value,
    schema: Option<&CollectionSchema>,
    aliases: &BTreeMap<String, String>,
) -> Vec<Diagnostic> {
    let filter = match Filter::parse(raw) {
        Ok(f) => f,
        Err(e) => {
            return vec![Diagnostic::error(
                "Q000",
                "$filter",
                format!("filter does not parse: {e}"),
            )]
        }
    };
    let mut out = Vec::new();
    let root = Scope::of(&filter, "");
    check_scope(&root, true, schema, aliases, &mut out);
    if let Some(schema) = schema {
        check_plan(&root, schema, &mut out);
    }
    out
}

/// One conjunctive scope: the predicates of a filter node and of its
/// nested `$and`s, by path (`prefix` names the array element an
/// `$elemMatch` scope is about), and the `$or`/`$nor` branches met there.
struct Scope<'f> {
    prefix: String,
    paths: BTreeMap<String, Vec<&'f Predicate>>,
    branches: Vec<&'f Filter>,
}

impl<'f> Scope<'f> {
    fn of(filter: &'f Filter, prefix: &str) -> Self {
        let mut scope = Scope {
            prefix: prefix.to_string(),
            paths: BTreeMap::new(),
            branches: Vec::new(),
        };
        scope.collect(filter);
        scope
    }

    fn collect(&mut self, filter: &'f Filter) {
        for (path, preds) in &filter.fields {
            let path = format!("{}{path}", self.prefix);
            self.paths.entry(path).or_default().extend(preds.iter());
        }
        for sub in &filter.and {
            self.collect(sub);
        }
        self.branches.extend(filter.or.iter().chain(&filter.nor));
    }
}

/// Check one scope's paths, then the `$elemMatch` sub-filters and the
/// branches inside it. `whole` says every document the whole filter
/// matches satisfies this scope — the root, and an `$elemMatch` in such
/// a scope — so a predicate set here that nothing satisfies is `Q002`.
fn check_scope(
    scope: &Scope<'_>,
    whole: bool,
    schema: Option<&CollectionSchema>,
    aliases: &BTreeMap<String, String>,
    out: &mut Vec<Diagnostic>,
) {
    for (path, preds) in &scope.paths {
        if let Some(schema) = schema {
            check_field_known(path, schema, aliases, out);
            check_types(path, preds, schema, out);
        }
        if whole {
            check_contradictions(path, preds, out);
        }
        for pred in preds {
            if let Predicate::ElemMatch(sub) = pred {
                let element = Scope::of(sub, &format!("{path}."));
                check_scope(&element, whole, schema, aliases, out);
            }
        }
    }
    for branch in &scope.branches {
        let branch = Scope::of(branch, &scope.prefix);
        check_scope(&branch, false, schema, aliases, out);
    }
}

// ---------------------------------------------------------------------------
// Q003: unknown fields with did-you-mean
// ---------------------------------------------------------------------------

fn check_field_known(
    path: &str,
    schema: &CollectionSchema,
    aliases: &BTreeMap<String, String>,
    out: &mut Vec<Diagnostic>,
) {
    if schema.has_field(path) || schema.sampled == 0 {
        return;
    }
    let mut d = Diagnostic::warning(
        "Q003",
        path,
        format!(
            "field `{path}` does not appear in any sampled document of `{}`",
            schema.collection
        ),
    );
    let candidates = schema
        .fields
        .keys()
        .map(String::as_str)
        .chain(aliases.keys().map(String::as_str));
    if let Some(best) = did_you_mean(path, candidates) {
        d = d.with_suggestion(format!("did you mean `{best}`?"));
    }
    out.push(d);
}

/// Closest candidate within an edit distance of 2 (ties broken first-seen).
fn did_you_mean<'a>(path: &str, candidates: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    let mut best: Option<(usize, &str)> = None;
    for cand in candidates {
        let d = levenshtein(path, cand, 3);
        if d <= 2 && best.map(|(bd, _)| d < bd).unwrap_or(true) {
            best = Some((d, cand));
        }
    }
    best.map(|(_, c)| c)
}

/// Bounded Levenshtein distance; returns `cap` when the distance exceeds it.
fn levenshtein(a: &str, b: &str, cap: usize) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) >= cap {
        return cap;
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = Vec::with_capacity(b.len() + 1);
        let mut last = i + 1;
        row.push(last);
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            let sub = prev.get(j).copied().unwrap_or(cap) + cost;
            let del = prev.get(j + 1).copied().unwrap_or(cap) + 1;
            last = sub.min(del).min(last + 1);
            row.push(last);
        }
        prev = row;
    }
    prev.last().copied().unwrap_or(cap).min(cap)
}

// ---------------------------------------------------------------------------
// Q001: type mismatches against the sampled schema
// ---------------------------------------------------------------------------

/// The type group an operand can match: numbers compare across int/double.
fn operand_group(v: &Value) -> TypeSet {
    match TypeSet::of(v) {
        t if t.intersects(TypeSet::NUMBER) => TypeSet::NUMBER,
        t => t,
    }
}

fn check_types(
    path: &str,
    preds: &[&Predicate],
    schema: &CollectionSchema,
    out: &mut Vec<Diagnostic>,
) {
    let field = schema.types_at(path);
    if field.is_empty() {
        return; // unknown field: Q003's job
    }
    let mismatch = |op: &str, want: TypeSet, out: &mut Vec<Diagnostic>| {
        out.push(
            Diagnostic::warning(
                "Q001",
                path,
                format!(
                    "`{op}` needs a {want} value but `{path}` holds {field} in the sampled \
                     documents of `{}`",
                    schema.collection
                ),
            )
            .with_suggestion(format!("compare `{path}` against {field}")),
        );
    };
    for pred in preds {
        match pred {
            Predicate::Eq(v) | Predicate::Ne(v) => {
                let group = operand_group(v);
                if !field.intersects(group) {
                    let op = if matches!(pred, Predicate::Eq(_)) {
                        "$eq"
                    } else {
                        "$ne"
                    };
                    mismatch(op, group, out);
                }
            }
            Predicate::Gt(v) | Predicate::Gte(v) | Predicate::Lt(v) | Predicate::Lte(v) => {
                let group = operand_group(v);
                if !field.intersects(group) {
                    mismatch(range_op_name(pred), group, out);
                }
            }
            Predicate::In(vs) | Predicate::Nin(vs) => {
                if !vs.is_empty() && !vs.iter().any(|v| field.intersects(operand_group(v))) {
                    let op = if matches!(pred, Predicate::In(_)) {
                        "$in"
                    } else {
                        "$nin"
                    };
                    mismatch(
                        op,
                        vs.first().map(operand_group).unwrap_or(TypeSet::EMPTY),
                        out,
                    );
                }
            }
            Predicate::Contains(_) | Predicate::StartsWith(_) => {
                if !field.intersects(TypeSet::STRING) {
                    mismatch("$regex", TypeSet::STRING, out);
                }
            }
            Predicate::Mod(_, _) => {
                if !field.intersects(TypeSet::NUMBER) {
                    mismatch("$mod", TypeSet::NUMBER, out);
                }
            }
            Predicate::All(_) | Predicate::Size(_) | Predicate::ElemMatch(_) => {
                if !field.intersects(TypeSet::ARRAY) {
                    let op = match pred {
                        Predicate::All(_) => "$all",
                        Predicate::Size(_) => "$size",
                        _ => "$elemMatch",
                    };
                    mismatch(op, TypeSet::ARRAY, out);
                }
            }
            Predicate::Type(name) => {
                const KNOWN: [&str; 8] = [
                    "null", "bool", "int", "double", "number", "string", "array", "object",
                ];
                if !KNOWN.contains(&name.as_str()) {
                    out.push(Diagnostic::warning(
                        "Q001",
                        path,
                        format!("`$type` operand `{name}` is not a known type name"),
                    ));
                }
            }
            Predicate::Exists(_) | Predicate::Not(_) => {}
        }
    }
}

fn range_op_name(p: &Predicate) -> &'static str {
    match p {
        Predicate::Gt(_) => "$gt",
        Predicate::Gte(_) => "$gte",
        Predicate::Lt(_) => "$lt",
        Predicate::Lte(_) => "$lte",
        _ => "$cmp",
    }
}

// ---------------------------------------------------------------------------
// Q002: conjuncts no document satisfies
// ---------------------------------------------------------------------------

/// The rules that hold for every document under DESIGN §10's semantics.
/// Each path's operators are tested on their own against everything the
/// path reaches, so two bounds or equalities that no one value meets can
/// still be met by two elements of an array, and are not checked.
fn check_contradictions(path: &str, preds: &[&Predicate], out: &mut Vec<Diagnostic>) {
    let mut push = |msg: String| {
        out.push(
            Diagnostic::error("Q002", path, msg)
                .with_suggestion("this predicate set can never match any document"),
        );
    };
    if preds
        .iter()
        .any(|p| matches!(p, Predicate::In(vs) if vs.is_empty()))
    {
        push("`$in: []` matches nothing".to_string());
    }
    // An undotted path reaches at most one value, and `$size` tests it
    // whole; a dotted one reaches one per element of an array of objects.
    let sizes: Vec<usize> = preds
        .iter()
        .filter_map(|p| match p {
            Predicate::Size(n) => Some(*n),
            _ => None,
        })
        .collect();
    if !path.contains('.') && sizes.iter().any(|n| Some(n) != sizes.first()) {
        push(format!("conflicting `$size`s: {sizes:?}"));
    }
    // `$exists: false` holds where the path reaches nothing, and every
    // operator but `$exists`, `$ne`, `$nin` and `$not` needs a value.
    let needs_value = |p: &&Predicate| {
        !matches!(
            p,
            Predicate::Exists(_) | Predicate::Ne(_) | Predicate::Nin(_) | Predicate::Not(_)
        )
    };
    if preds.iter().any(|p| matches!(p, Predicate::Exists(false))) && preds.iter().any(needs_value)
    {
        push("`$exists: false` combined with a value constraint".to_string());
    }
}

// ---------------------------------------------------------------------------
// Q004 and P001: what the planner can do with the root scope
// ---------------------------------------------------------------------------

/// Warn when the root scope's sargable predicates (those the planner can
/// turn into an index probe) have no index (`Q004`), or when there are
/// none (`P001`). An empty collection (or a typo'd database path
/// resolving to one) costs nothing to scan; warning about it would only
/// mislead.
fn check_plan(root: &Scope<'_>, schema: &CollectionSchema, out: &mut Vec<Diagnostic>) {
    if schema.total_docs == 0 {
        return;
    }
    let sargable: Vec<&String> = root
        .paths
        .iter()
        .filter(|(_, preds)| {
            preds.iter().any(|p| {
                matches!(
                    p,
                    Predicate::Eq(_)
                        | Predicate::In(_)
                        | Predicate::Gt(_)
                        | Predicate::Gte(_)
                        | Predicate::Lt(_)
                        | Predicate::Lte(_)
                )
            })
        })
        .map(|(path, _)| path)
        .collect();
    let listed = |paths: &mut dyn Iterator<Item = &String>| {
        paths
            .map(|p| format!("`{p}`"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let (total, coll) = (schema.total_docs, &schema.collection);
    if let Some(first) = sargable.first() {
        if sargable.iter().any(|p| schema.is_indexed(p)) {
            return;
        }
        out.push(
            Diagnostic::warning(
                "Q004",
                first.as_str(),
                format!(
                    "no index covers {}; this scans all {total} documents of `{coll}`",
                    listed(&mut sargable.iter().copied())
                ),
            )
            .with_suggestion(format!("create_index(\"{first}\") would serve this query")),
        );
    } else if let Some(first) = root.paths.keys().next() {
        out.push(
            Diagnostic::warning(
                "P001",
                first.as_str(),
                format!(
                    "no sargable predicate on {}: no index can serve this query, forcing a \
                     scan of all {total} documents of `{coll}`",
                    listed(&mut root.paths.keys())
                ),
            )
            .with_suggestion("add an equality, `$in`, or range bound on an indexable field"),
        );
    } else if !root.branches.is_empty() {
        out.push(
            Diagnostic::warning(
                "P001",
                "$filter",
                format!(
                    "the root of this filter is a pure disjunction, which the planner cannot \
                     index — it scans all {total} documents of `{coll}`"
                ),
            )
            .with_suggestion("conjoin a selective predicate at the root, outside the `$or`/`$nor`"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::{has_errors, Severity};
    use serde_json::json;

    fn schema() -> CollectionSchema {
        CollectionSchema {
            sampled: 8,
            total_docs: 8,
            ..CollectionSchema::with_fields(
                "tasks",
                [
                    ("chemsys", TypeSet::STRING),
                    ("nsites", TypeSet::INT),
                    ("band_gap", TypeSet::DOUBLE),
                    ("elements", TypeSet::ARRAY.union(TypeSet::STRING)),
                    ("output.energy", TypeSet::DOUBLE),
                ],
                ["chemsys"],
            )
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn with_schema(q: Value) -> Vec<Diagnostic> {
        analyze_query_with_schema(&q, &schema(), &BTreeMap::new())
    }

    #[test]
    fn q000_unparseable_filter() {
        let diags = analyze_query(&json!({"a": {"$frobnicate": 1}}));
        assert_eq!(codes(&diags), vec!["Q000"]);
        assert!(has_errors(&diags));
    }

    #[test]
    fn q001_type_mismatch_is_a_warning() {
        for q in [
            json!({"chemsys": {"$gt": 5}}),
            json!({"nsites": "two"}),
            json!({"nsites": {"$type": "decimal"}}),
        ] {
            let diags = with_schema(q.clone());
            assert!(codes(&diags).contains(&"Q001"), "{q}: {diags:?}");
            assert!(!has_errors(&diags), "a sample proves nothing: {q}");
        }
    }

    #[test]
    fn q001_number_matches_int_or_double() {
        // 2 vs a double field and 2.0 vs an int field are both fine: the
        // store compares numbers across representations.
        let ok = with_schema(json!({"band_gap": 2, "nsites": {"$lte": 4.0}}));
        assert!(!ok.iter().any(|d| d.code == "Q001"), "{ok:?}");
    }

    /// The surviving rules fire in the root scope, inside `$and` and
    /// inside an `$elemMatch` there; the shapes some document matches do
    /// not, nor does anything in a `$or`/`$nor` branch.
    #[test]
    fn q002_only_where_no_document_can_match() {
        for q in [
            json!({"n": {"$in": []}}),
            json!({"$and": [{"n": {"$size": 1}}, {"n": {"$size": 2}}]}),
            json!({"n": {"$exists": false, "$gt": 1}}),
            json!({"runs": {"$elemMatch": {"ok": {"$in": []}}}}),
        ] {
            assert_eq!(codes(&analyze_query(&q)), vec!["Q002"], "{q}");
        }
        for q in [
            json!({"n": {"$gt": 5, "$lt": 3}}),
            json!({"n": 5, "$and": [{"n": 6}]}),
            json!({"n": {"$eq": 10, "$lt": 5}}),
            json!({"n": {"$gt": 1, "$lt": "x"}}),
            json!({"n": {"$exists": false, "$ne": 5}}),
            json!({"n": {"$exists": false, "$nin": [5]}}),
            json!({"n": {"$exists": false, "$not": {"$gt": 5}}}),
            json!({"$and": [{"a.n": {"$size": 1}}, {"a.n": {"$size": 2}}]}),
            json!({"$nor": [{"n": {"$in": []}}]}),
            json!({"$or": [{"n": {"$in": []}}, {"b": 1}]}),
        ] {
            assert!(analyze_query(&q).is_empty(), "{q}");
        }
    }

    #[test]
    fn q003_unknown_field_suggests_alias() {
        let mut aliases = BTreeMap::new();
        aliases.insert(
            "e_above_hull".to_string(),
            "stability.e_above_hull".to_string(),
        );
        let diags = analyze_query_with_schema(&json!({"chemsy": "Li-O"}), &schema(), &aliases);
        let q003 = diags
            .iter()
            .find(|d| d.code == "Q003")
            .expect("Q003 emitted");
        assert_eq!(q003.severity, Severity::Warning);
        assert!(
            q003.suggestion.as_deref().unwrap_or("").contains("chemsys"),
            "{q003:?}"
        );
    }

    #[test]
    fn q004_unindexed_scan_warns_and_indexed_does_not() {
        let diags = with_schema(json!({"nsites": 2}));
        assert_eq!(codes(&diags), vec!["Q004"]);
        assert!(!has_errors(&diags), "Q004 is advisory");
        let ok = with_schema(json!({"chemsys": "Li-O", "nsites": 2}));
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn p001_non_sargable_root_flags_forced_collscan() {
        assert_eq!(
            codes(&with_schema(json!({"chemsys": {"$regex": "Li"}}))),
            ["P001"]
        );
        // Even on the indexed field: `$exists` cannot drive a probe.
        assert_eq!(
            codes(&with_schema(json!({"chemsys": {"$exists": true}}))),
            ["P001"]
        );
        // So is a root that is only a disjunction.
        let q = json!({"$or": [{"chemsys": "Li-O"}, {"nsites": 2}]});
        assert_eq!(codes(&with_schema(q)), ["P001"]);
    }

    #[test]
    fn sargable_roots_do_not_flag_p001() {
        // An unindexed sargable predicate is Q004's territory, not P001's.
        assert_eq!(
            codes(&with_schema(json!({"nsites": {"$gte": 2}}))),
            ["Q004"]
        );
        // A sargable anchor next to the disjunction rescues the plan.
        let anchored = json!({"chemsys": "Li-O", "$or": [{"chemsys": "Li-O"}, {"nsites": 2}]});
        assert!(with_schema(anchored).is_empty());
        // The unconstrained find-all is a deliberate dump, not a mistake.
        assert!(with_schema(json!({})).is_empty());
        // Scanning an empty collection costs nothing.
        let empty = CollectionSchema::with_fields("staging", [], []);
        let q = json!({"x": {"$regex": "a"}});
        assert!(analyze_query_with_schema(&q, &empty, &BTreeMap::new()).is_empty());
    }

    #[test]
    fn clean_query_has_no_diagnostics() {
        let diags = with_schema(json!({"chemsys": "Li-O", "output.energy": {"$lt": 0.0}}));
        assert!(diags.is_empty(), "{diags:?}");
    }
}
