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
//!   `CompiledFindOptions::cmp_docs`): their whole body is hot.
//! * **driver roots** own the per-document loop
//!   (`filter_matches`, `scatter_matches`, `project_matches`, the scan
//!   segment's `build_column`, `has_numbers_at`, `narrow` and
//!   `Candidates::iter`,
//!   the aggregation `run_stage`, the MapReduce engines): only their
//!   *loop regions* —
//!   lines inside `for`/`while` bodies or iterator-adapter closures —
//!   are hot.
//! * hotness propagates: any function called from a hot region is
//!   entirely hot, transitively, and every diagnostic prints the hot
//!   call chain from the root that made it hot.
//! * **cold functions** stop propagation: the uncompiled reference
//!   implementations (`Filter::matches`, the naive
//!   `FindOptions::project_doc`/`compare`/`apply_order`) are spec
//!   oracles kept for property tests, never on the optimized path.
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
//!   compiled once per query (`Filter::parse`, `.compile()`,
//!   `compile_path`, and the string-splitting `get_path`/`set_path`/
//!   `get_path_multi`; the pre-split `*_segs` twins are the fix and are
//!   not matched).
//! - `H005`: lock acquisition (`.lock()`/`.read()`/`.write()`) in a hot
//!   region — a per-document lock serializes the scatter.
//! - `H006`: an `mp-lint: allow(H...)` with no justification.
//! - `H007`: config drift — the [`HotConfig`] names a function the
//!   workspace no longer defines (mirrors `S002`).
//!
//! Suppression mirrors the flow pass: `mp-lint: allow(H001) — <justification>`
//! on the line, the line directly above, or the function's signature
//! line (or any line of the comment block directly above the
//! signature, covering the whole body). The justification after the
//! closing paren is mandatory. An allowed line also stops hotness
//! propagation through its call sites: the annotation asserts the line
//! is not per-document, so its callees are not dragged hot by it.
//!
//! Known granularity limit, by design: hotness of a call site is judged
//! by its *line*. A once-per-query call placed on the same line as an
//! iterator adapter (e.g. `pool.scatter(chunks, |c| c.iter().map(...))`
//! written as one line) is treated as hot; hoist the closure body onto
//! its own lines instead of suppressing.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

use crate::callgraph::{scan_tree, CallGraph};
use crate::concurrency::match_positions;
use crate::diagnostics::Diagnostic;
use crate::flow::FnRef;
use crate::summary::mask_source;

/// Assembled with `concat!` so this file never matches its own pattern
/// literals (the other source passes scan this file too).
const ALLOW_MARK: &str = concat!("mp-", "lint: allow(");

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
            concat!("compile_", "path("),
            concat!("get_", "path("),
            concat!("get_path_", "multi("),
            concat!("set_", "path("),
        ],
        what: "per-document re-parse/re-compile",
        advice: "compile the filter/projection/path once per query and reuse the compiled \
                 form (`CompiledFilter`, `CompiledProjection`, `get_path_segs`/\
                 `set_path_segs` over pre-split segments)",
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

/// Configuration for the hot-path pass: which functions seed hotness
/// and which are exempt spec oracles.
#[derive(Debug, Clone)]
pub struct HotConfig {
    /// Functions owning a per-document loop: only their loop regions
    /// are hot, and only calls made from a loop region propagate.
    pub driver_roots: Vec<FnRef>,
    /// Functions that run once per document by contract: their whole
    /// body is hot.
    pub per_doc_roots: Vec<FnRef>,
    /// Reference/spec implementations hotness never enters (kept as
    /// property-test oracles, not on the optimized path).
    pub cold_fns: Vec<FnRef>,
}

impl HotConfig {
    /// The Materials Project workspace defaults: the morsel/chunked scan
    /// and projection drivers (including the segmented parallel arm, the
    /// crossover-routed counter, the scan segment's column build, pruning
    /// pass and survivor iterator, and the executor's morsel
    /// dispatch/claim loops), the aggregation
    /// stage runner, and the MapReduce engines own the loops; the compiled
    /// projection, and compiled sort comparator run per document; the
    /// uncompiled `Filter::matches` and the naive `FindOptions`
    /// reference implementations are cold spec oracles.
    pub fn materials_project_defaults() -> Self {
        let parse = |v: &[&str]| v.iter().map(|s| FnRef::parse(s)).collect();
        HotConfig {
            driver_roots: parse(&[
                "filter_matches",
                "scatter_matches",
                "project_matches",
                "Collection::count_exec",
                "build_column",
                "Segment::has_numbers_at",
                "narrow",
                "Candidates::iter",
                "CompiledFindOptions::apply_order",
                "run_stage",
                "BuiltinEngine::run",
                "HadoopEngine::run",
                "WorkPool::scatter_morsels",
                "MorselRun::claim",
            ]),
            per_doc_roots: parse(&[
                "CompiledFilter::matches",
                "CompiledProjection::project_one",
                "CompiledFindOptions::cmp_docs",
            ]),
            cold_fns: parse(&[
                "Filter::matches",
                "FindOptions::project_doc",
                "FindOptions::compare",
                "FindOptions::apply_order",
            ]),
        }
    }
}

/// `allow(...)` codes named on a raw line via the mp-lint marker, plus
/// whether a justification follows the closing paren.
fn hot_allows(raw: &str) -> (Vec<String>, bool) {
    let Some(start) = raw.find(ALLOW_MARK) else {
        return (Vec::new(), true);
    };
    let rest = &raw[start + ALLOW_MARK.len()..];
    let Some(end) = rest.find(')') else {
        return (Vec::new(), true);
    };
    let codes = rest[..end]
        .split(',')
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .collect();
    let justification = rest[end + 1..]
        .trim_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '-' | ':' | '.' | ','));
    (codes, justification.chars().count() >= 8)
}

/// The fn-level suppression line for a signature on 1-based `fn_line`:
/// the signature line itself, or any line of the contiguous
/// comment/attribute block directly above it (the hot allow may share
/// that block with doc text and other passes' allow comments).
fn fn_allow_line(raw_lines: &[String], fn_line: usize) -> &str {
    let sig = raw_lines
        .get(fn_line.wrapping_sub(1))
        .map(String::as_str)
        .unwrap_or("");
    if sig.contains(ALLOW_MARK) {
        return sig;
    }
    let mut idx = fn_line.wrapping_sub(1);
    while idx >= 1 {
        let above = raw_lines.get(idx - 1).map(String::as_str).unwrap_or("");
        let lead = above.trim_start();
        if !lead.starts_with("//") && !lead.starts_with("#[") {
            break;
        }
        if above.contains(ALLOW_MARK) {
            return above;
        }
        idx -= 1;
    }
    sig
}

/// Per-file scan artifacts: raw lines (for allow comments) and masked
/// lines (for structural/pattern scanning).
struct FileArt {
    raw: Vec<String>,
    masked: Vec<String>,
}

/// `(body-open line, body-open column, end line)` of the function whose
/// signature starts at 1-based `fn_line`, by brace matching over the
/// masked text. `None` when no body opens (declaration only).
fn fn_extent(masked: &[String], fn_line: usize) -> Option<(usize, usize, usize)> {
    let mut open: Option<(usize, usize)> = None;
    let mut depth = 0i64;
    for (idx, line) in masked.iter().enumerate().skip(fn_line.saturating_sub(1)) {
        for (col, c) in line.char_indices() {
            match c {
                '{' => {
                    depth += 1;
                    if open.is_none() {
                        open = Some((idx + 1, col));
                    }
                }
                '}' if open.is_some() => {
                    depth -= 1;
                    if depth == 0 {
                        let (ol, oc) = open.unwrap_or((idx + 1, col));
                        return Some((ol, oc, idx + 1));
                    }
                }
                _ => {}
            }
        }
    }
    open.map(|(ol, oc)| (ol, oc, masked.len()))
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

/// 1-based lines of the body that sit inside a loop region: inside a
/// block opened after a loop marker, or carrying a marker themselves
/// (single-line adapter closures). Shared with the ordering pass
/// ([`crate::order`]), whose `O004` charges fsyncs inside these lines.
pub(crate) fn loop_lines(
    masked: &[String],
    open_line: usize,
    open_col: usize,
    end: usize,
) -> BTreeSet<usize> {
    let mut set = BTreeSet::new();
    let mut stack: Vec<bool> = Vec::new();
    let mut pending = false;
    for lineno in open_line..=end {
        let full = masked.get(lineno - 1).map(String::as_str).unwrap_or("");
        let seg = if lineno == open_line {
            full.get(open_col..).unwrap_or("")
        } else {
            full
        };
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

/// Resolve a ref list against the graph; every ref with zero matches is
/// one `H007` (config drift would silently disable the pass).
fn resolve(
    graph: &CallGraph,
    refs: &[FnRef],
    kind: &str,
    diags: &mut Vec<Diagnostic>,
) -> Vec<bool> {
    let mut mask = vec![false; graph.fns.len()];
    for r in refs {
        let mut hit = false;
        for (i, f) in graph.fns.iter().enumerate() {
            if r.is_match(f) {
                mask[i] = true;
                hit = true;
            }
        }
        if !hit {
            diags.push(
                Diagnostic::error(
                    "H007",
                    r.display(),
                    format!(
                        "hotpath config names {kind} `{}` but the workspace defines no such \
                         function — the pass would silently skip it",
                        r.display()
                    ),
                )
                .with_suggestion(
                    "update HotConfig (or materials_project_defaults) to match the renamed \
                     or removed function",
                ),
            );
        }
    }
    mask
}

fn chain_text(graph: &CallGraph, parent: &BTreeMap<usize, usize>, mut node: usize) -> String {
    let mut rev = vec![node];
    while let Some(&p) = parent.get(&node) {
        node = p;
        rev.push(node);
    }
    rev.reverse();
    rev.iter()
        .map(|&i| graph.fns[i].qualified())
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Method names shared with the std containers. A bare `m.insert(k, v)`
/// or `v.len()` resolves by name+arity to any same-named workspace
/// method (`Index::insert`, `Collection::len`), so following those
/// edges would manufacture hot chains out of plain `BTreeMap`/`Vec`
/// calls. Hotness never propagates *through* a method with one of
/// these names; the body is still scanned when hot by other means
/// (e.g. named as a root).
const STD_SHADOWED: &[&str] = &[
    "len",
    "get",
    "insert",
    "push",
    "remove",
    "extend",
    "clear",
    "is_empty",
    "contains",
    "contains_key",
    "entry",
    "iter",
];

/// Scan the given 1-based `lines` of function `i`'s body for the H0xx
/// anti-patterns, suppressing allowed codes. `clip` is the body-open
/// position: text before it on that line (the signature) is excluded,
/// so a function whose own name matches a pattern (`compile_path`)
/// never flags its signature.
#[allow(clippy::too_many_arguments)]
fn scan_lines(
    graph: &CallGraph,
    i: usize,
    art: &FileArt,
    lines: &BTreeSet<usize>,
    clip: Option<(usize, usize)>,
    chain: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let f = &graph.fns[i];
    let fn_level = fn_allow_line(&art.raw, f.line);
    for &lineno in lines {
        let masked_full = art.masked.get(lineno - 1).map(String::as_str).unwrap_or("");
        let masked = match clip {
            Some((l, c)) if l == lineno => masked_full.get(c..).unwrap_or(""),
            _ => masked_full,
        };
        let raw = art.raw.get(lineno - 1).map(String::as_str).unwrap_or("");
        let prev = if lineno >= 2 {
            art.raw.get(lineno - 2).map(String::as_str).unwrap_or("")
        } else {
            ""
        };
        let mut allowed = Vec::new();
        for src in [raw, prev, fn_level] {
            allowed.extend(hot_allows(src).0);
        }
        for p in PATTERNS {
            if allowed.iter().any(|a| a == p.code) {
                continue;
            }
            if p.pats
                .iter()
                .any(|pat| !match_positions(masked, pat).is_empty())
            {
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

/// Run the hot-path pass over a prebuilt call graph. `sources` maps the
/// summary-relative file path of every scanned file to its raw text.
pub fn analyze_hotpath(
    graph: &CallGraph,
    sources: &BTreeMap<String, String>,
    config: &HotConfig,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    let arts: BTreeMap<&str, FileArt> = sources
        .iter()
        .map(|(p, s)| {
            (
                p.as_str(),
                FileArt {
                    raw: s.lines().map(str::to_string).collect(),
                    masked: mask_source(s).lines().map(str::to_string).collect(),
                },
            )
        })
        .collect();

    // H006: a justification-free H-allow is wrong even in cold code.
    for (path, art) in &arts {
        for (idx, raw) in art.raw.iter().enumerate() {
            if !raw.contains(ALLOW_MARK) {
                continue;
            }
            let (codes, justified) = hot_allows(raw);
            if !justified && codes.iter().any(|c| c.starts_with('H')) {
                diags.push(
                    Diagnostic::error(
                        "H006",
                        format!("{path}:{}", idx + 1),
                        "`mp-lint: allow(H...)` has no justification".to_string(),
                    )
                    .with_suggestion(
                        "append a justification after the closing paren, e.g. \
                         `mp-lint: allow(H002) — one output row per group is inherent`",
                    ),
                );
            }
        }
    }

    let drivers = resolve(graph, &config.driver_roots, "driver root", &mut diags);
    let per_doc = resolve(
        graph,
        &config.per_doc_roots,
        "per-document root",
        &mut diags,
    );
    let cold = resolve(graph, &config.cold_fns, "cold function", &mut diags);

    // Body extents and loop regions, computed lazily per function.
    let extent_of = |i: usize| -> Option<(usize, usize, usize)> {
        let f = &graph.fns[i];
        arts.get(f.file.as_str())
            .and_then(|a| fn_extent(&a.masked, f.line))
    };
    // A call site on a line carrying an H-code allow (inline or on the
    // line directly above, matching the suppression contexts) asserts
    // the line is not per-document; it neither fires nor propagates
    // hotness.
    let allowed_line = |file: &str, line: usize| -> bool {
        let Some(art) = arts.get(file) else {
            return false;
        };
        [line, line.wrapping_sub(1)].iter().any(|&l| {
            art.raw
                .get(l.wrapping_sub(1))
                .map(|raw| hot_allows(raw).0.iter().any(|c| c.starts_with('H')))
                .unwrap_or(false)
        })
    };
    let shadowed = |v: usize| -> bool {
        let f = &graph.fns[v];
        f.impl_type.is_some() && STD_SHADOWED.contains(&f.name.as_str())
    };

    // Hotness propagation: per-document roots are fully hot; driver
    // roots seed hotness through call sites inside their loop regions.
    let n = graph.fns.len();
    let mut hot = vec![false; n];
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut q = VecDeque::new();
    for i in 0..n {
        if per_doc[i] && !cold[i] {
            hot[i] = true;
            q.push_back(i);
        }
    }
    let mut driver_loops: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (i, _) in drivers.iter().enumerate().filter(|(_, d)| **d) {
        let Some((ol, oc, end)) = extent_of(i) else {
            continue;
        };
        let f = &graph.fns[i];
        let loops = arts
            .get(f.file.as_str())
            .map(|a| loop_lines(&a.masked, ol, oc, end))
            .unwrap_or_default();
        for &(v, line) in &graph.out[i] {
            if loops.contains(&line)
                && !hot[v]
                && !cold[v]
                && !shadowed(v)
                && !allowed_line(&f.file, line)
            {
                hot[v] = true;
                parent.insert(v, i);
                q.push_back(v);
            }
        }
        driver_loops.insert(i, loops);
    }
    while let Some(u) = q.pop_front() {
        let file = graph.fns[u].file.clone();
        for &(v, line) in &graph.out[u] {
            if !hot[v] && !cold[v] && !shadowed(v) && !allowed_line(&file, line) {
                hot[v] = true;
                parent.insert(v, u);
                q.push_back(v);
            }
        }
    }

    // Pattern scan: fully hot bodies everywhere, driver roots only in
    // their loop regions.
    for i in 0..n {
        let f = &graph.fns[i];
        let Some(art) = arts.get(f.file.as_str()) else {
            continue;
        };
        if hot[i] {
            let Some((ol, oc, end)) = extent_of(i) else {
                continue;
            };
            let lines: BTreeSet<usize> = (ol..=end).collect();
            let chain = chain_text(graph, &parent, i);
            scan_lines(graph, i, art, &lines, Some((ol, oc)), &chain, &mut diags);
        } else if drivers[i] {
            if let Some(loops) = driver_loops.get(&i) {
                let clip = extent_of(i).map(|(ol, oc, _)| (ol, oc));
                let chain = graph.fns[i].qualified();
                scan_lines(graph, i, art, loops, clip, &chain, &mut diags);
            }
        }
    }
    diags
}

/// Scan the workspace at `root` and run the pass with the Materials
/// Project defaults.
pub fn analyze_hotpath_tree(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let graph = scan_tree(root)?;
    let mut sources: BTreeMap<String, String> = BTreeMap::new();
    for f in &graph.fns {
        if !sources.contains_key(&f.file) {
            let text = std::fs::read_to_string(root.join(&f.file))?;
            sources.insert(f.file.clone(), text);
        }
    }
    Ok(analyze_hotpath(
        &graph,
        &sources,
        &HotConfig::materials_project_defaults(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize_source;

    fn graph_and_sources(files: &[(&str, &str)]) -> (CallGraph, BTreeMap<String, String>) {
        let mut fns = Vec::new();
        let mut sources = BTreeMap::new();
        for (path, src) in files {
            fns.extend(summarize_source(path, src));
            sources.insert((*path).to_string(), (*src).to_string());
        }
        let mut deps = BTreeMap::new();
        deps.insert("a".to_string(), BTreeSet::new());
        (CallGraph::build(fns, &deps), sources)
    }

    fn cfg(drivers: &[&str], per_doc: &[&str], cold: &[&str]) -> HotConfig {
        let parse = |v: &[&str]| v.iter().map(|s| FnRef::parse(s)).collect();
        HotConfig {
            driver_roots: parse(drivers),
            per_doc_roots: parse(per_doc),
            cold_fns: parse(cold),
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
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&[], &["M::matches"], &[]));
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
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&["drive"], &[], &[]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "H003");
        assert!(diags[0].path.ends_with(":5"), "{}", diags[0].path);
    }

    /// The workspace defaults classify the morsel executor's dispatch
    /// and claim loops as hot roots: a per-morsel deep copy inside
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
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_hotpath(&g, &s, &HotConfig::materials_project_defaults());
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
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&["drive"], &[], &[]));
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
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&["drive"], &[], &[]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn cold_fns_break_propagation() {
        let src = concat!(
            "pub fn drive(docs: &[Value]) {\n",
            "  for d in docs {\n",
            "    spec_oracle(d);\n",
            "  }\n",
            "}\n",
            "fn spec_oracle(d: &Value) {\n",
            "  let _ = ",
            "get_path",
            "(d, \"a.b\");\n",
            "}\n",
            "fn get_path(d: &Value, p: &str) -> Option<Value> { None }\n"
        );
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&["drive"], &[], &["spec_oracle"]));
        assert!(diags.is_empty(), "{diags:?}");
        // Without the cold exemption the same graph flags H004.
        let diags = analyze_hotpath(&g, &s, &cfg(&["drive"], &[], &[]));
        assert!(diags.iter().any(|d| d.code == "H004"), "{diags:?}");
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
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&["drive"], &[], &[]));
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
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", &src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&[], &["hot"], &[]));
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
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&[], &["hot"], &[]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn config_drift_is_h007() {
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", "pub fn real() {}\n")]);
        let diags = analyze_hotpath(&g, &s, &cfg(&["Gone::missing"], &[], &[]));
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
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&[], &["hot"], &[]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn presplit_seg_twins_are_not_h004() {
        let src = concat!(
            "pub fn hot(d: &Value, segs: &[PathSeg]) {\n",
            "  let _ = get_path_segs(d, segs);\n",
            "}\n",
            "fn get_path_segs(d: &Value, s: &[PathSeg]) -> Option<&Value> { None }\n"
        );
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&[], &["hot"], &[]));
        assert!(diags.is_empty(), "{diags:?}");
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
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&["drive"], &[], &[]));
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
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", &src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&["drive"], &[], &[]));
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
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&["drive"], &[], &[]));
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
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_hotpath(&g, &s, &cfg(&[], &["hot"], &[]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn workspace_is_hotpath_clean() {
        // The acceptance gate: zero unjustified H0xx findings on the
        // whole workspace with the Materials Project defaults. Every
        // surviving per-document allocation carries a justified
        // H-code allow comment.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diags = analyze_hotpath_tree(&root).expect("scan workspace");
        assert!(
            diags.is_empty(),
            "workspace hotpath findings:\n{}",
            crate::diagnostics::render(&diags)
        );
    }
}
