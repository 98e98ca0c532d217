//! Pass 5: performance lints — query shapes the planner can never
//! accelerate, and source patterns that defeat the zero-copy read path.
//!
//! Codes:
//! - `P001` (warning): forced collection scan. The root conjunctive scope
//!   carries constraints, but none of them is *sargable* (`$eq`, `$in`,
//!   or a range bound) — or the root is a pure `$or`/`$nor` disjunction,
//!   which the planner treats as opaque. Whatever indexes exist, the only
//!   access path is a walk over every document. Distinct from `Q004`,
//!   which fires when sargable predicates exist but no index covers them:
//!   `Q004` is fixed by creating an index, `P001` only by reshaping the
//!   query.
//! - `P002` (warning): deep-clone on the read path. A `.map(...)` whose
//!   closure body is `(*d).clone()` / `(**d).clone()` / `d.as_ref().clone()`
//!   materializes an owned copy of every document in a shared result set.
//!   Scan results are `Arc<Document>` handles precisely so consumers never
//!   have to do this; the one sanctioned site is a serialization boundary,
//!   annotated `mp-lint: allow(P002)`.
//! - `P003` is retired: it flagged the uncompiled `Filter::matches` in a
//!   loop, and the store no longer has an uncompiled matcher.
//!
//! `P002` is a source scan in the `L0xx` mold (see
//! [`crate::concurrency`]): line-based, string-literal-blind, with
//! `mp-lint: allow(P002)` suppression on the line or the line above. The
//! pattern literals are assembled with `concat!` so this file never
//! matches its own patterns.

use std::collections::BTreeMap;

use mp_docstore::query::Predicate;
use mp_docstore::Filter;
use serde_json::Value;

use crate::concurrency::{match_positions, split_comment};
use crate::core::{Allow, Scope, Workspace};
use crate::diagnostics::Diagnostic;
use crate::query::collect_conjuncts;
use crate::schema::CollectionSchema;

/// A predicate the planner can turn into an index probe.
fn is_sargable(p: &Predicate) -> bool {
    matches!(
        p,
        Predicate::Eq(_)
            | Predicate::In(_)
            | Predicate::Gt(_)
            | Predicate::Gte(_)
            | Predicate::Lt(_)
            | Predicate::Lte(_)
    )
}

/// Flag filters whose only possible plan is a full collection scan, no
/// matter what indexes exist.
pub fn analyze_query_perf(raw: &Value, schema: &CollectionSchema) -> Vec<Diagnostic> {
    // Scanning an empty collection costs nothing; warning would mislead.
    if schema.total_docs == 0 {
        return Vec::new();
    }
    let Ok(filter) = Filter::parse(raw) else {
        return Vec::new(); // Q000's job
    };
    let mut conj: BTreeMap<String, Vec<&Predicate>> = BTreeMap::new();
    let mut branches: Vec<&Filter> = Vec::new();
    collect_conjuncts(&filter, "", &mut conj, &mut branches);

    let constrained = !conj.is_empty();
    let sargable = conj.values().flatten().any(|p| is_sargable(p));
    let mut out = Vec::new();
    if constrained && !sargable {
        let listed = conj
            .keys()
            .map(|p| format!("`{p}`"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push(
            Diagnostic::warning(
                "P001",
                conj.keys().next().map(String::as_str).unwrap_or("$filter"),
                format!(
                    "no sargable predicate on {listed}: no index can serve this \
                     query, forcing a scan of all {} documents of `{}`",
                    schema.total_docs, schema.collection
                ),
            )
            .with_suggestion("add an equality, `$in`, or range bound on an indexable field"),
        );
    } else if !constrained && !branches.is_empty() {
        out.push(
            Diagnostic::warning(
                "P001",
                "$filter",
                format!(
                    "the root of this filter is a pure disjunction, which the \
                     planner cannot index — it scans all {} documents of `{}`",
                    schema.total_docs, schema.collection
                ),
            )
            .with_suggestion("conjoin a selective predicate at the root, outside the `$or`/`$nor`"),
        );
    }
    out
}

// ---------------------------------------------------------------------------
// P002: a source scan over workspace Rust files.
// ---------------------------------------------------------------------------

const MAP_OPEN: &str = concat!(".map(", "|");
const CLONE_CALL: &str = concat!(").clone", "()");
const AS_REF_CLONE: &str = concat!(".as_ref()", ".clone", "()");
/// `pos` points just past `.map(|`; returns the closure binding and the
/// byte offset where its body starts, if the parameter list is a bare
/// identifier (`|d|`).
fn closure_binding(code: &str, pos: usize) -> Option<(&str, usize)> {
    let rest = &code[pos..];
    let end = rest.find('|')?;
    let name = rest[..end].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    Some((name, pos + end + 1))
}

/// Does the closure body starting at `body` deep-clone the binding?
fn body_deep_clones(code: &str, body: usize, name: &str) -> bool {
    let body = code[body..].trim_start();
    // `(*d).clone()` / `(**d).clone()`
    for stars in ["(*", "(**"] {
        if let Some(rest) = body.strip_prefix(&format!("{stars}{name}")) {
            if rest.starts_with(CLONE_CALL) {
                return true;
            }
        }
    }
    // `d.as_ref().clone()`
    body.strip_prefix(name)
        .is_some_and(|rest| rest.starts_with(AS_REF_CLONE))
}

/// Scan one Rust source file for `P002`; `path` is used verbatim in
/// diagnostics.
pub fn analyze_perf_source(path: &str, source: &str) -> Vec<Diagnostic> {
    scan(path, source.lines())
}

/// The pass-table entry: every file of the tree, tests and examples
/// included.
pub fn pass(ws: &Workspace) -> Vec<Diagnostic> {
    ws.files(&Scope::TREE)
        .flat_map(|(path, file)| scan(path, file.raw.iter().map(String::as_str)))
        .collect()
}

fn scan<'a>(path: &str, lines: impl Iterator<Item = &'a str>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut allow_from_prev: Vec<String> = Vec::new();

    for (idx, raw_line) in lines.enumerate() {
        let lineno = idx + 1;
        let (code, comment) = split_comment(raw_line);
        let trimmed = code.trim();

        let mut allowed = std::mem::take(&mut allow_from_prev);
        allowed.extend(Allow::parse(comment).into_iter().flat_map(|a| a.codes));
        if trimmed.is_empty() {
            allow_from_prev = allowed;
            continue;
        }
        let is_allowed = |code: &str| allowed.iter().any(|a| a == code);
        let at = format!("{path}:{lineno}");

        // P002: `.map(|d| (*d).clone())` and friends.
        if !is_allowed("P002") {
            for pos in match_positions(code, MAP_OPEN) {
                if let Some((name, body)) = closure_binding(code, pos + MAP_OPEN.len()) {
                    if body_deep_clones(code, body, name) {
                        diags.push(
                            Diagnostic::warning(
                                "P002",
                                at.clone(),
                                format!("closure deep-clones `{name}` out of a shared result set"),
                            )
                            .with_suggestion(
                                "keep the Arc handles (`.cloned()` copies pointers, not \
                                 documents); materialize only at a serialization boundary, \
                                 annotated `mp-lint: allow(P002)`",
                            ),
                        );
                    }
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TypeSet;
    use serde_json::json;
    use std::path::Path;

    fn schema() -> CollectionSchema {
        CollectionSchema {
            sampled: 8,
            total_docs: 8,
            ..CollectionSchema::with_fields(
                "tasks",
                [
                    ("chemsys", TypeSet::STRING),
                    ("nsites", TypeSet::INT),
                    ("elements", TypeSet::ARRAY.union(TypeSet::STRING)),
                ],
                ["chemsys"],
            )
        }
    }

    #[test]
    fn p001_non_sargable_root_flags_forced_collscan() {
        let diags = analyze_query_perf(&json!({"chemsys": {"$regex": "Li"}}), &schema());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "P001");
        // Even on the indexed field: `$exists` cannot drive a probe.
        let diags = analyze_query_perf(&json!({"chemsys": {"$exists": true}}), &schema());
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn p001_pure_disjunction_root_flags() {
        let diags = analyze_query_perf(
            &json!({"$or": [{"chemsys": "Li-O"}, {"nsites": 2}]}),
            &schema(),
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "P001");
    }

    #[test]
    fn sargable_roots_do_not_flag() {
        // Even an *unindexed* sargable predicate is Q004's territory,
        // not P001's: an index would fix it.
        assert!(analyze_query_perf(&json!({"nsites": {"$gte": 2}}), &schema()).is_empty());
        assert!(analyze_query_perf(&json!({"chemsys": "Li-O"}), &schema()).is_empty());
        // A sargable anchor next to the disjunction rescues the plan.
        let anchored = json!({"nsites": 1, "$or": [{"chemsys": "Li-O"}, {"nsites": 2}]});
        assert!(analyze_query_perf(&anchored, &schema()).is_empty());
        // The unconstrained find-all is a deliberate dump, not a mistake.
        assert!(analyze_query_perf(&json!({}), &schema()).is_empty());
    }

    #[test]
    fn empty_collection_is_exempt() {
        let empty = CollectionSchema::with_fields("staging", [], []);
        let diags = analyze_query_perf(&json!({"x": {"$regex": "a"}}), &empty);
        assert!(diags.is_empty(), "{diags:?}");
    }

    // ---- P002 ----

    #[test]
    fn p002_map_deref_clone_flags() {
        for body in ["(*d)", "(**d)"] {
            let src = format!(
                "let rows: Vec<Value> = docs.iter(){}|d| {body}{}{}).collect();\n",
                concat!(".map", "("),
                concat!(".clone", "("),
                ")"
            );
            let diags = analyze_perf_source("x.rs", &src);
            assert_eq!(diags.len(), 1, "{body}: {diags:?}");
            assert_eq!(diags[0].code, "P002");
        }
        let src = concat!(
            "let rows = docs.iter()",
            ".map(",
            "|d| d",
            ".as_ref()",
            ".clone",
            "()).collect();\n"
        );
        let diags = analyze_perf_source("x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn p002_arc_preserving_maps_are_clean() {
        // Cloning the handle, projecting, or cloning a different binding
        // is not a deep copy of the result set.
        for src in [
            concat!("let r = docs.iter()", ".map(", "|d| Arc::clone(d));\n"),
            concat!("let r = docs.iter().filter(|d| p(d))", ".cloned();\n"),
            concat!("let r = docs.iter()", ".map(", "|d| project(d));\n"),
            concat!(
                "let r = xs.iter()",
                ".map(",
                "|(k, v)| (*k).clone",
                "());\n"
            ),
        ] {
            let diags = analyze_perf_source("x.rs", src);
            assert!(diags.is_empty(), "{src}: {diags:?}");
        }
    }

    #[test]
    fn p002_allow_comment_suppresses() {
        let src = concat!(
            "// mp-lint: allow(P002) — serialization boundary\n",
            "let rows = docs.iter()",
            ".map(",
            "|d| (*d)",
            ".clone",
            "()).collect();\n"
        );
        assert!(analyze_perf_source("x.rs", src).is_empty());
    }

    #[test]
    fn workspace_is_perf_clean() {
        // The acceptance gate: the whole workspace reports zero P002
        // findings. The sanctioned serialization boundary is annotated.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = Workspace::scan(&root, &[&Scope::TREE]).expect("scan workspace");
        let diags = pass(&ws);
        assert!(
            diags.is_empty(),
            "workspace P002 findings:\n{}",
            crate::diagnostics::render(&diags)
        );
    }
}
