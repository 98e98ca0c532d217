//! Pass 7: interprocedural hot-path cost analysis (`H0xx`).
//!
//! The read path processes *documents*, and at 100k documents any
//! per-document allocation multiplies by the collection size. This pass
//! finds those multiplications statically. It reuses the mp-flow
//! machinery — per-function summaries ([`crate::summary`]) and the
//! workspace call graph ([`crate::callgraph`]) — and adds a *hotness*
//! model on top:
//!
//! * **per-document roots** run once per document by contract
//!   (`CompiledFilter::matches`, `CompiledProjection::project_one`,
//!   `CompiledFindOptions::cmp_docs`, and the scan's sinks
//!   `projected_doc` and `handle_and_row` — the match-evaluation scan
//!   calls a sink through a closure parameter, which the call graph
//!   cannot follow, and `handle_and_row` is the served miss path of a
//!   projected read): their whole body is hot.
//! * **driver roots** own the per-document loop
//!   (`filter_matches` and its fanned-out morsels, `fan_out`, the scan
//!   segment's `build_column`, `has_numbers_at` and `Walk::next`, whose
//!   walk tests each row against the column bounds, the morsel scatter,
//!   the aggregation `run_stage`, the MapReduce engines): only their
//!   *loop regions* —
//!   lines inside `for`/`while` bodies or iterator-adapter closures —
//!   are hot.
//! * hotness propagates: any function called from a hot region is
//!   entirely hot, transitively, and every diagnostic prints the hot
//!   call chain from the root that made it hot. The store has one
//!   matcher, one orderer and one projection — the compiled ones, roots
//!   here — so there is no cold reference code to exempt: the oracles of
//!   the property tests live in the test-only `mp-model` crate, which no
//!   product function calls.
//!
//! Codes (all `Error` severity — CI gates the workspace at zero):
//! - `H001`: per-document deep copy (`.clone()` / `.to_vec()` /
//!   `.to_owned()`) of document contents in a hot region.
//! - `H002`: fresh unsized container (`Vec::new()` / `Map::new()` /
//!   `BTreeMap::new()` / `HashMap::new()` / `vec![...]`) built per
//!   document; `with_capacity` is the sanctioned pre-sized form and is
//!   deliberately *not* matched.
//! - `H003`: string building (`format!` / `String::new()` /
//!   `.push_str` / `.to_string`) per document.
//! - `H004`: re-parsing or re-compiling per document what should be
//!   compiled once per query (`Filter::parse`, `.compile()`, and
//!   `Path::new`, the one place a dotted path is split; a walk over a
//!   `Path` split earlier is the fix and is not matched).
//! - `H005`: lock acquisition (`.lock()`/`.read()`/`.write()`) in a hot
//!   region — a per-document lock serializes the scatter.
//! - `H006`: an `mp-lint: allow(H...)` with no justification.
//! - `H007`: config drift — the [`HotConfig`] names a function the
//!   workspace no longer defines (mirrors `S002`).
//!
//! Allows follow the one policy (DESIGN §7 "Allow policy"). One thing
//! is this pass's own: an allowed line also stops hotness propagation
//! through its call sites — the annotation asserts the line is not
//! per-document, so its callees are not dragged hot by it.
//!
//! Known granularity limit, by design: hotness of a call site is judged
//! by its *line*. A once-per-query call placed on the same line as an
//! iterator adapter (e.g. `pool.scatter_morsels(docs, n, |m| m.iter().map(...))`
//! written as one line) is treated as hot; hoist the closure body onto
//! its own lines instead of suppressing.

use std::collections::{BTreeMap, BTreeSet};

use crate::concurrency::match_positions;
use crate::core::{
    matches_any, reach, resolve, shadowed, unjustified_allows, Dir, Drift, FnRef, Workspace,
};
use crate::diagnostics::Diagnostic;

const DRIFT: Drift = Drift {
    code: "H007",
    pass: "hotpath",
    config: "HotConfig",
};

/// One hot-path anti-pattern family.
struct HotPattern {
    code: &'static str,
    /// Substring patterns matched against *masked* source lines.
    pats: &'static [&'static str],
    what: &'static str,
    advice: &'static str,
}

const PATTERNS: &[HotPattern] = &[
    HotPattern {
        code: "H001",
        pats: &[
            concat!(".clo", "ne()"),
            concat!(".to_", "vec("),
            concat!(".to_", "owned("),
        ],
        what: "per-document deep copy",
        advice: "keep Arc handles / borrow the document; materialize owned data once per \
                 query, or annotate the sanctioned copy with \
                 `mp-lint: allow(H001) — <justification>`",
    },
    HotPattern {
        code: "H002",
        pats: &[
            concat!("Vec::", "new()"),
            concat!("Map::", "new()"),
            concat!("BTreeMap::", "new()"),
            concat!("HashMap::", "new()"),
            concat!("vec!", "["),
        ],
        what: "fresh container built per document",
        advice: "hoist a reusable buffer out of the loop or pre-size with `with_capacity`; \
                 if one output row per group is inherent, annotate \
                 `mp-lint: allow(H002) — <justification>`",
    },
    HotPattern {
        code: "H003",
        pats: &[
            concat!("for", "mat!("),
            concat!("String::", "new()"),
            concat!(".push_", "str("),
            concat!(".to_s", "tring("),
        ],
        what: "string building per document",
        advice: "compare/key on borrowed values instead of building strings per document; \
                 error paths may annotate `mp-lint: allow(H003) — <justification>`",
    },
    HotPattern {
        code: "H004",
        pats: &[
            concat!("Filter::", "parse("),
            concat!("parse_", "pipeline("),
            concat!(".com", "pile("),
            concat!("Path::", "new("),
        ],
        what: "per-document re-parse/re-compile",
        advice: "compile the filter/projection/path once per query and reuse the compiled \
                 form (`CompiledFilter`, `CompiledProjection`, a `Path` split once and \
                 walked by its methods)",
    },
    HotPattern {
        code: "H005",
        pats: &[
            concat!(".lo", "ck()"),
            concat!(".re", "ad()"),
            concat!(".wri", "te()"),
        ],
        what: "lock acquired in a hot region",
        advice: "take the lock once outside the per-document loop (snapshot under the \
                 lock, process outside it)",
    },
];

/// Same-line constructs whose body runs once per element. A `{` opened
/// after one of these markers starts a loop region.
const LOOP_MARKERS: &[&str] = &[
    "for ",
    "while ",
    concat!("lo", "op {"),
    concat!(".ma", "p("),
    concat!(".fil", "ter("),
    concat!(".filter_", "map("),
    concat!(".flat_", "map("),
    concat!(".for_", "each("),
    concat!(".ret", "ain("),
    concat!(".an", "y("),
    concat!(".al", "l("),
    concat!(".fo", "ld("),
    concat!(".posi", "tion("),
    concat!(".fin", "d("),
    concat!(".find_", "map("),
    concat!(".sort_", "by("),
    concat!(".sort_by_", "key("),
    concat!(".sort_unstable_", "by("),
    concat!(".binary_search_", "by("),
    concat!(".max_", "by("),
    concat!(".min_", "by("),
];

/// Configuration for the hot-path pass: which functions seed hotness.
#[derive(Debug, Clone)]
pub struct HotConfig {
    /// Functions owning a per-document loop: only their loop regions
    /// are hot, and only calls made from a loop region propagate.
    pub driver_roots: Vec<FnRef>,
    /// Functions that run once per document by contract: their whole
    /// body is hot.
    pub per_doc_roots: Vec<FnRef>,
}

impl HotConfig {
    /// The Materials Project workspace defaults: the match scan (counting
    /// is that scan under a sink with no per-document code of its own)
    /// and its fanned-out morsels, the scan segment's column build and
    /// the candidates' walk, which tests each row against the column
    /// bounds, the morsel scatter, the aggregation stage runner, and the
    /// MapReduce engines own the loops; the compiled
    /// projection, the scan's two projecting sinks and the compiled sort
    /// comparator run per document.
    pub fn materials_project_defaults() -> Self {
        HotConfig {
            driver_roots: FnRef::list(&[
                "filter_matches",
                "fan_out",
                "build_column",
                "Segment::has_numbers_at",
                "Walk::next",
                "CompiledFindOptions::apply_order",
                "run_stage",
                "BuiltinEngine::run",
                "HadoopEngine::run",
                "WorkPool::scatter_morsels",
            ]),
            per_doc_roots: FnRef::list(&[
                "CompiledFilter::matches",
                "CompiledProjection::project_one",
                "CompiledFindOptions::cmp_docs",
                "projected_doc",
                "handle_and_row",
            ]),
        }
    }
}

/// Does a loop marker at `pos` leave its region unopened at end of
/// line? A `for`/`while` header may break before its `{`; an iterator
/// adapter spills only while its parenthesis is still open — a fully
/// parenthesized single-line closure (`.map(|d| f(d))`) is complete
/// on its line and must not turn the next unrelated `{` (a match arm,
/// an `if` body) into a loop region.
fn marker_spills(seg: &str, pos: usize, marker: &str) -> bool {
    let after = seg.get(pos..).unwrap_or("");
    if after.contains('{') {
        return false;
    }
    if !marker.starts_with('.') {
        return true;
    }
    let mut depth = 0i64;
    for c in after.chars() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    true
}

/// 1-based lines of function `i`'s body that sit inside a loop region:
/// inside a block opened after a loop marker, or carrying a marker
/// themselves (single-line adapter closures). Also what
/// [`crate::order`]'s one rule reads: `O004` charges an fsync on these
/// lines.
pub(crate) fn loop_lines(ws: &Workspace, i: usize) -> BTreeSet<usize> {
    let mut set = BTreeSet::new();
    let mut stack: Vec<bool> = Vec::new();
    let mut pending = false;
    for (lineno, seg) in ws.body_lines(i) {
        let marks: Vec<(usize, &str)> = LOOP_MARKERS
            .iter()
            .flat_map(|m| match_positions(seg, m).into_iter().map(move |p| (p, *m)))
            .collect();
        if stack.iter().any(|&b| b) || !marks.is_empty() {
            set.insert(lineno);
        }
        for (i, c) in seg.char_indices() {
            match c {
                '{' => {
                    let hot = pending || marks.iter().any(|&(p, _)| p < i);
                    pending = false;
                    stack.push(hot);
                }
                '}' => {
                    stack.pop();
                }
                _ => {}
            }
        }
        for &(p, m) in &marks {
            if marker_spills(seg, p, m) {
                pending = true;
            }
        }
    }
    set
}

/// Scan function `i`'s body — only the given 1-based `lines` of it, if
/// any are given — for the H0xx anti-patterns, suppressing allowed
/// codes. Text before the body-open
/// position on its line (the signature) is excluded, so a function
/// whose own name matches a pattern (`compile`) never flags its
/// signature.
fn scan_lines(
    ws: &Workspace,
    i: usize,
    lines: Option<&BTreeSet<usize>>,
    chain: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let f = &ws.graph.fns[i];
    let wanted = |l: &usize| lines.is_none_or(|set| set.contains(l));
    for (lineno, masked) in ws.body_lines(i).filter(|(l, _)| wanted(l)) {
        for p in PATTERNS {
            if matches_any(masked, p.pats) && !ws.allowed(p.code, i, lineno) {
                diags.push(
                    Diagnostic::error(
                        p.code,
                        format!("{}:{lineno}", f.file),
                        format!(
                            "{} in hot function `{}`; this runs once per document at \
                             collection scale; hot call chain: {chain}",
                            p.what,
                            f.qualified()
                        ),
                    )
                    .with_suggestion(p.advice),
                );
            }
        }
    }
}

/// Run the hot-path pass over the workspace.
pub fn analyze_hotpath(ws: &Workspace, config: &HotConfig) -> Vec<Diagnostic> {
    let graph = &ws.graph;
    // H006: a justification-free H-allow is wrong even in cold code.
    let mut diags = unjustified_allows(ws, "H006");

    let drivers = resolve(
        graph,
        &config.driver_roots,
        "driver root",
        &DRIFT,
        &mut diags,
    );
    let per_doc = resolve(
        graph,
        &config.per_doc_roots,
        "per-document root",
        &DRIFT,
        &mut diags,
    );

    // A call site on a line carrying an H-code allow (inline or on the
    // line directly above) asserts the line is not per-document; it
    // neither fires nor propagates hotness.
    let propagates = |u: usize, v: usize, line: usize| -> bool {
        !shadowed(graph, v) && !ws.file_of(u).site_allows_family(line, 'H')
    };

    // Hotness seeds: per-document roots are fully hot; driver roots
    // seed hotness through call sites inside their loop regions.
    let n = graph.fns.len();
    let mut seeds: Vec<(usize, Option<usize>)> =
        (0..n).filter(|&i| per_doc[i]).map(|i| (i, None)).collect();
    let mut driver_loops: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for i in (0..n).filter(|&i| drivers[i]) {
        let loops = loop_lines(ws, i);
        for &(v, line) in &graph.out[i] {
            if loops.contains(&line) && propagates(i, v, line) {
                seeds.push((v, Some(i)));
            }
        }
        driver_loops.insert(i, loops);
    }
    let hot = reach(graph, Dir::Callees, seeds, propagates);

    // Pattern scan: fully hot bodies everywhere, driver roots only in
    // their loop regions.
    for i in 0..n {
        if hot.seen[i] {
            scan_lines(ws, i, None, &hot.chain(graph, i), &mut diags);
        } else if let Some(loops) = driver_loops.get(&i) {
            let chain = graph.fns[i].qualified();
            scan_lines(ws, i, Some(loops), &chain, &mut diags);
        }
    }
    diags
}

/// The pass-table entry: the pass with the Materials Project defaults.
pub fn pass(ws: &Workspace) -> Vec<Diagnostic> {
    analyze_hotpath(ws, &HotConfig::materials_project_defaults())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{workspace_of, Scope};
    use std::path::Path;

    fn cfg(drivers: &[&str], per_doc: &[&str]) -> HotConfig {
        HotConfig {
            driver_roots: FnRef::list(drivers),
            per_doc_roots: FnRef::list(per_doc),
        }
    }

    #[test]
    fn per_doc_root_body_is_fully_hot() {
        let src = concat!(
            "pub struct M;\nimpl M {\n",
            "  pub fn matches(&self, doc: &Value) -> bool {\n",
            "    let copy = doc",
            ".clone",
            "();\n",
            "    copy.is_object()\n",
            "  }\n}\n"
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&[], &["M::matches"]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "H001");
        assert!(
            diags[0].message.contains("a::M::matches"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn driver_root_flags_only_loop_bodies() {
        let src = concat!(
            "pub fn drive(docs: &[Value]) -> Vec<String> {\n",
            "  let once = ",
            "format!",
            "(\"{}\", docs.len());\n",
            "  let mut out = Vec::with_capacity(docs.len());\n",
            "  for d in docs {\n",
            "    out.push(",
            "format!",
            "(\"{:?}\", d));\n",
            "  }\n",
            "  let _ = once;\n",
            "  out\n",
            "}\n"
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&["drive"], &[]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "H003");
        assert!(diags[0].path.ends_with(":5"), "{}", diags[0].path);
    }

    /// The workspace defaults classify the morsel scatter as a hot
    /// root: a per-morsel deep copy inside
    /// `WorkPool::scatter_morsels` is a finding out of the box.
    #[test]
    fn morsel_executor_is_a_default_hot_root() {
        let src = concat!(
            "pub struct WorkPool;\nimpl WorkPool {\n",
            "  pub fn scatter_morsels(&self, items: &[Value]) -> Vec<Value> {\n",
            "    let mut out = Vec::with_capacity(items.len());\n",
            "    for m in items.chunks(4) {\n",
            "      out.push(m[0]",
            ".clone",
            "());\n",
            "    }\n",
            "    out\n",
            "  }\n}\n"
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], &[]);
        let diags = analyze_hotpath(&ws, &HotConfig::materials_project_defaults());
        let h001: Vec<_> = diags.iter().filter(|d| d.code == "H001").collect();
        assert_eq!(h001.len(), 1, "{diags:?}");
        assert!(
            h001[0].message.contains("scatter_morsels"),
            "{}",
            h001[0].message
        );
    }

    #[test]
    fn hotness_propagates_with_full_chain() {
        let src = concat!(
            "pub fn drive(docs: &[Value]) {\n",
            "  for d in docs {\n",
            "    step(d);\n",
            "  }\n",
            "}\n",
            "fn step(d: &Value) { leaf(d); }\n",
            "fn leaf(d: &Value) {\n",
            "  let mut v = Vec::",
            "new();\n",
            "  v.push(d);\n",
            "}\n"
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&["drive"], &[]));
        let h002: Vec<_> = diags.iter().filter(|d| d.code == "H002").collect();
        assert_eq!(h002.len(), 1, "{diags:?}");
        assert!(
            h002[0].message.contains("a::drive -> a::step -> a::leaf"),
            "{}",
            h002[0].message
        );
    }

    #[test]
    fn calls_outside_loops_do_not_propagate() {
        let src = concat!(
            "pub fn drive(docs: &[Value]) {\n",
            "  setup();\n",
            "  for d in docs {\n",
            "    let _ = d;\n",
            "  }\n",
            "}\n",
            "fn setup() {\n",
            "  let mut v = Vec::",
            "new();\n",
            "  v.push(1);\n",
            "}\n"
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&["drive"], &[]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn h005_lock_in_hot_loop() {
        let src = concat!(
            "pub fn drive(&self, docs: &[Value]) {\n",
            "  for d in docs {\n",
            "    let g = self.state",
            ".lock",
            "();\n",
            "    g.push(d);\n",
            "  }\n",
            "}\n"
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&["drive"], &[]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "H005");
    }

    #[test]
    fn justified_allow_suppresses_and_bare_allow_is_h006() {
        let allow_ok = concat!(
            "// mp-",
            "lint: allow(H001) — output rows are owned by contract\n"
        );
        let allow_bad = concat!(" // mp-", "lint: allow(H001)\n");
        let src = format!(
            concat!(
                "pub fn hot(d: &Value) -> Value {{\n",
                "  {}",
                "  let a = d",
                ".clone",
                "();\n",
                "  let b = d",
                ".clone",
                "();{}",
                "  a\n",
                "}}\n"
            ),
            allow_ok, allow_bad
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&[], &["hot"]));
        // Both sites suppressed (one justified, one pending H006), and
        // the bare allow itself is the only finding.
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "H006");
    }

    #[test]
    fn fn_level_allow_covers_body() {
        let src = concat!(
            "// mp-",
            "lint: allow(H003) — diagnostic rendering is inherently string-built\n",
            "pub fn hot(d: &Value) -> String {\n",
            "  ",
            "format!",
            "(\"{d:?}\")\n",
            "}\n"
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&[], &["hot"]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn config_drift_is_h007() {
        let ws = workspace_of(&[("crates/a/src/lib.rs", "pub fn real() {}\n")], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&["Gone::missing"], &[]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "H007");
        assert!(diags[0].message.contains("Gone::missing"));
    }

    #[test]
    fn with_capacity_is_not_h002() {
        let src = concat!(
            "pub fn hot(d: &Value) -> Vec<u8> {\n",
            "  let mut out = Vec::with_capacity(4);\n",
            "  out.push(1);\n",
            "  out\n",
            "}\n"
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&[], &["hot"]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn a_walk_over_a_compiled_path_is_not_h004_and_splitting_one_is() {
        let walk = concat!(
            "pub fn hot(d: &Value, path: &Path) {\n",
            "  let _ = path.get(d);\n",
            "}\n"
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", walk)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&[], &["hot"]));
        assert!(diags.is_empty(), "{diags:?}");

        let split = concat!(
            "pub fn hot(d: &Value) {\n",
            "  let _ = Path::",
            "new(\"a.b\").get(d);\n",
            "}\n"
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", split)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&[], &["hot"]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "H004");
    }

    #[test]
    fn single_line_adapter_does_not_open_a_region() {
        // `.filter(...)` closes on its own line; the `{` of the next
        // match arm must not become a phantom loop region.
        let src = concat!(
            "pub fn drive(docs: &[Value]) -> Vec<Value> {\n",
            "  let kept: Vec<Value> = docs.iter()",
            ".filter",
            "(|d| d.is_object()).cloned().collect();\n",
            "  match kept.len() {\n",
            "    0 => {\n",
            "      let v = Vec::",
            "new();\n",
            "      v\n",
            "    }\n",
            "    _ => kept,\n",
            "  }\n",
            "}\n"
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&["drive"], &[]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allowed_call_line_does_not_propagate() {
        let allow = concat!(
            "// mp-",
            "lint: allow(H004) — compiles each spec once per query, not per document\n"
        );
        let src = format!(
            concat!(
                "pub fn drive(docs: &[Value]) {{\n",
                "  for d in docs {{\n",
                "    {}",
                "    helper(d);\n",
                "  }}\n",
                "}}\n",
                "fn helper(d: &Value) {{\n",
                "  let mut v = Vec::",
                "new();\n",
                "  v.push(d);\n",
                "}}\n"
            ),
            allow
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&["drive"], &[]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn std_shadowed_method_names_do_not_propagate() {
        // `c.len()` resolves by name+arity to `Coll::len`; following
        // that edge would make every `Vec::len()` call a hot chain.
        let src = concat!(
            "pub fn drive(docs: &[Value], c: &Coll) {\n",
            "  for d in docs {\n",
            "    let _ = (d, c.len());\n",
            "  }\n",
            "}\n",
            "pub struct Coll;\n",
            "impl Coll {\n",
            "  pub fn len(&self) -> usize {\n",
            "    let v: Vec<u8> = Vec::",
            "new();\n",
            "    v.len()\n",
            "  }\n",
            "}\n"
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&["drive"], &[]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn fn_level_allow_found_through_comment_block() {
        // The hot allow may sit above other passes' allow comments in
        // the same block directly over the signature.
        let src = concat!(
            "// mp-",
            "lint: allow(H001) — output documents are owned by contract here\n",
            "// mp-",
            "flow: allow(R001) — unrelated pass, sits between\n",
            "pub fn hot(d: &Value) -> Value {\n",
            "  d",
            ".clone",
            "()\n",
            "}\n"
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], &[]);
        let diags = analyze_hotpath(&ws, &cfg(&[], &["hot"]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn workspace_is_hotpath_clean() {
        // The acceptance gate: zero unjustified H0xx findings on the
        // whole workspace with the Materials Project defaults. Every
        // surviving per-document allocation carries a justified
        // H-code allow comment.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = Workspace::scan(&root, &[&Scope::GRAPH]).expect("scan workspace");
        let diags = pass(&ws);
        assert!(
            diags.is_empty(),
            "workspace hotpath findings:\n{}",
            crate::diagnostics::render(&diags)
        );
    }
}
