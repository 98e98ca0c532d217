//! Pass 5: performance lints — source patterns that defeat the
//! zero-copy read path.
//!
//! Codes:
//! - `P001` (warning): forced collection scan, a query shape the planner
//!   can never accelerate. It is a finding about a filter, so the query
//!   analyzer reports it ([`crate::query`]), from the same root scope and
//!   the same sargable-predicate list as `Q004`.
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

use crate::concurrency::{match_positions, split_comment};
use crate::core::{Allow, Scope, Workspace};
use crate::diagnostics::Diagnostic;

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
    use std::path::Path;

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
