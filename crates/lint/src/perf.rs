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
//! - `P003` (warning): `.matches(...)` on an *uncompiled* filter inside an
//!   iterator/loop construct. `Filter::matches` re-splits every dotted
//!   path and re-walks operand lists per call; in a per-document loop that
//!   cost multiplies by the collection size. Call `Filter::compile()` once
//!   outside the loop and match through the `CompiledFilter` (by
//!   convention bound as `cf`, which this pass exempts).
//!
//! `P002`/`P003` are source scans in the `L0xx` mold (see
//! [`crate::concurrency`]): line-based, string-literal-blind, with
//! `mp-lint: allow(PXXX)` suppression on the line or the line above. The
//! pattern literals are assembled with `concat!` so this file never
//! matches its own patterns.

use std::collections::BTreeMap;

use mp_docstore::query::Predicate;
use mp_docstore::Filter;
use serde_json::Value;

use crate::concurrency::{match_positions, receiver_before, split_comment};
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
// P002 / P003: source scans over workspace Rust files.
// ---------------------------------------------------------------------------

const MAP_OPEN: &str = concat!(".map(", "|");
const CLONE_CALL: &str = concat!(").clone", "()");
const AS_REF_CLONE: &str = concat!(".as_ref()", ".clone", "()");
const MATCHES_CALL: &str = concat!(".matches", "(");
/// Same-line constructs that run their body once per element.
const LOOP_MARKERS: &[&str] = &[
    "for ",
    "while ",
    concat!(".filter", "("),
    concat!(".map", "("),
    concat!(".any", "("),
    concat!(".all", "("),
    concat!(".retain", "("),
    concat!(".for_each", "("),
    concat!(".position", "("),
    concat!(".find", "("),
];

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

/// From the `(` of a call at `open`, count top-level arguments on this
/// line; `None` when the paren does not close on the line.
fn args_on_line(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut any = false;
    for c in code[open..].chars() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(if any { commas + 1 } else { 0 });
                }
            }
            ',' if depth == 1 => commas += 1,
            c if depth >= 1 && !c.is_whitespace() => any = true,
            _ => {}
        }
    }
    None
}

/// A receiver the compiled-filter convention sanctions: the `cf` binding
/// or anything self-describing (`compiled_filter.matches(...)`).
fn compiled_receiver(receiver: &str) -> bool {
    let last = receiver.rsplit(['.', ':']).next().unwrap_or(receiver);
    last == "cf" || last.contains("compiled")
}

/// Scan one Rust source file for `P002`/`P003`; `path` is used verbatim
/// in diagnostics. Files named `query.rs` under `docstore/src` are exempt
/// from `P003` — that file *is* the matcher implementation and its
/// recursive `$and`/`$or` walks are the thing being compiled away.
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
    let p003_applies = !path.replace('\\', "/").ends_with("docstore/src/query.rs");
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

        // P003: uncompiled `.matches(` inside a per-element construct.
        if p003_applies && !is_allowed("P003") {
            for pos in match_positions(code, MATCHES_CALL) {
                let in_loop = LOOP_MARKERS
                    .iter()
                    .any(|m| match_positions(code, m).iter().any(|&mp| mp < pos));
                if !in_loop {
                    continue;
                }
                let receiver = receiver_before(code, pos);
                // Chained temporaries (`Filter::parse(x)?.matches(..)`)
                // yield an empty receiver: per-iteration filters, exempt.
                if receiver.is_empty() || compiled_receiver(&receiver) {
                    continue;
                }
                // `Filter::matches` takes one argument; two or more is a
                // different `matches` (e.g. the structure matcher).
                let open = pos + MATCHES_CALL.len() - 1;
                if args_on_line(code, open).is_some_and(|n| n >= 2) {
                    continue;
                }
                diags.push(
                    Diagnostic::warning(
                        "P003",
                        at.clone(),
                        format!(
                            "`{receiver}.matches(...)` re-parses paths per document inside \
                             a loop"
                        ),
                    )
                    .with_suggestion(
                        "call `Filter::compile()` once outside the loop and match through \
                         the `CompiledFilter` (bind it `cf`)",
                    ),
                );
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

    // ---- P003 ----

    #[test]
    fn p003_uncompiled_matches_in_loop_flags() {
        let src = concat!(
            "let out: Docs = docs.into_iter().filter(|d| f",
            ".matches",
            "(d)).collect();\n"
        );
        let diags = analyze_perf_source("x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "P003");
        assert!(diags[0].message.starts_with("`f."), "{}", diags[0].message);
    }

    #[test]
    fn p003_compiled_receiver_is_clean() {
        for src in [
            concat!(
                "let out: Docs = docs.into_iter().filter(|d| cf",
                ".matches",
                "(d)).collect();\n"
            ),
            concat!(
                "let n = docs.iter().filter(|d| compiled_filter",
                ".matches",
                "(d)).count();\n"
            ),
        ] {
            let diags = analyze_perf_source("x.rs", src);
            assert!(diags.is_empty(), "{src}: {diags:?}");
        }
    }

    #[test]
    fn p003_single_calls_and_chained_parses_are_clean() {
        for src in [
            // Not in a loop construct: one match, one cost.
            concat!("if f", ".matches", "(&doc) {\n"),
            // Per-iteration filter: the parse is inherent, receiver empty.
            concat!(
                "for c in children { let ok = Filter::parse(q)?",
                ".matches",
                "(&merged); }\n"
            ),
            // Two arguments: a different `matches` entirely.
            concat!(
                "for j in 0..n { if self",
                ".matches",
                "(s, &others[j]) { break; } }\n"
            ),
        ] {
            let diags = analyze_perf_source("x.rs", src);
            assert!(diags.is_empty(), "{src}: {diags:?}");
        }
    }

    #[test]
    fn p003_matcher_implementation_file_is_exempt() {
        let src = concat!(
            "if !self.and.iter().all(|c| c",
            ".matches",
            "(doc)) { return false; }\n"
        );
        assert!(analyze_perf_source("crates/docstore/src/query.rs", src).is_empty());
        assert_eq!(analyze_perf_source("crates/other/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn workspace_is_perf_clean() {
        // The acceptance gate: the whole workspace reports zero P002/P003
        // findings. The sanctioned serialization boundary is annotated.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = Workspace::scan(&root, &[&Scope::TREE]).expect("scan workspace");
        let diags = pass(&ws);
        assert!(
            diags.is_empty(),
            "workspace P002/P003 findings:\n{}",
            crate::diagnostics::render(&diags)
        );
    }
}
