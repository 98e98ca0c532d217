//! Pass 8: interprocedural mutation-effect analysis (`E0xx`).
//!
//! The datastore's consistency story rests on three invariants that no
//! single function can see locally: every mutation must **bump the
//! collection generation** (or the query cache serves stale results),
//! every mutation must be reachable only through a **journaling**
//! caller (or recovery replays to a different state), and no
//! **Ordered lock may be held across blocking I/O** or a work-pool
//! scatter (or one slow fsync serializes the whole server). This pass
//! proves all three statically. It reuses the mp-flow machinery —
//! per-function summaries ([`crate::summary`]) and the workspace call
//! graph ([`crate::callgraph`]) — and computes per-function *effect
//! summaries* (mutates / bumps-generation / appends-journal / blocking
//! I/O / scatter), propagated bottom-up through the graph.
//!
//! Codes (all `Error` severity — CI gates the workspace at zero):
//! - `E001`: a configured mutation primitive that never reaches a
//!   generation bump — its writes are invisible to the query cache.
//! - `E002`: the journal-coverage contract: a configured mutation
//!   primitive (the store's raw apply) called from a function that never
//!   reaches the journal, or called from nowhere — the raw apply must be
//!   reachable only through the commit function that appends first.
//! - `E003`: blocking I/O or a work-pool scatter (direct or transitive)
//!   while a *bound* Ordered-lock guard is live. A chained temporary
//!   (`self.journal.lock().log(op)`) releases at the end of the
//!   statement and is exempt by construction.
//! - `E004`: in-place mutation of `Arc`-shared data (`Arc::get_mut` /
//!   `Arc::make_mut`) — a COW violation against the snapshot-scan
//!   contract (readers hold clones of the same `Arc`s).
//! - `E005`: a generation bump not preceded by a lock acquisition in the
//!   same body — the bump can race the query cache's generation check.
//! - `E006`: an `mp-lint: allow(E...)` with no justification.
//! - `E007`: config drift — the [`EffectConfig`] names a function the
//!   workspace no longer defines, or `DESIGN.md` fails to document one
//!   of the `E0xx` codes (the allow policy is part of the contract).
//!
//! Suppression mirrors the hotpath pass: `mp-lint: allow(E002) — <justification>`
//! on the line, the line directly above, or the function's signature
//! line (or any line of the comment block directly above the signature,
//! covering the whole body). The justification after the closing paren
//! is mandatory.
//!
//! Known granularity limits, by design: effects propagate through calls
//! resolved by name+arity, so method names shared with the std
//! containers (`insert`, `clear`, `len`, …) neither grant nor propagate
//! effects — a plain `map.clear()` must not make its caller a
//! collection mutator, and the cost is that a genuine
//! `Collection::clear` call site is only checked at the coverage level
//! (its enclosing function is not marked as mutating). Guard extents
//! are tracked per `let`-binding line; destructuring bindings
//! (`if let Some(g) = …read()`) are not tracked.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

use crate::callgraph::{scan_tree, CallGraph};
use crate::concurrency::match_positions;
use crate::diagnostics::Diagnostic;
use crate::flow::FnRef;
use crate::summary::mask_source;

/// Assembled with `concat!` so this file never matches its own pattern
/// literals (the other source passes scan this file too).
const ALLOW_MARK: &str = concat!("mp-", "lint: allow(");

/// Every code this pass can emit; `DESIGN.md` must document each one.
pub const EFFECT_CODES: &[&str] = &["E001", "E002", "E003", "E004", "E005", "E006", "E007"];

/// Blocking-I/O markers, matched against *masked* source lines. The
/// `.write()` lock op is not here: a file write always takes an
/// argument, a lock guard acquisition never does.
const IO_PATTERNS: &[&str] = &[
    concat!("std::", "fs::"),
    concat!("fs::", "write("),
    concat!("fs::", "read("),
    concat!("fs::", "read_to_string("),
    concat!("fs::", "create_dir"),
    concat!("fs::", "remove_"),
    concat!("fs::", "rename("),
    concat!("File::", "create("),
    concat!("File::", "open("),
    concat!("OpenOptions::", "new("),
    concat!(".write_", "all("),
    concat!(".sync_", "all("),
    concat!(".sync_", "data("),
    concat!(".flu", "sh("),
    concat!("read_to_", "string("),
];

/// Work-pool scatter markers: the calls that fan work out to every pool
/// thread — the classic per-job `scatter` and the morsel-driven
/// `scatter_morsels` (which also runs on the calling thread, so a held
/// guard both parks the pool and re-enters with work of its own).
const SCATTER_PATTERNS: &[&str] = &[concat!(".scat", "ter("), concat!(".scatter_", "morsels(")];

/// In-place mutation of `Arc`-shared data (E004): the read path hands
/// out clones of shared `Arc<Document>`s, so mutating through them
/// would be visible to every concurrent reader mid-scan.
const COW_PATTERNS: &[&str] = &[concat!("Arc::get_", "mut("), concat!("Arc::make_", "mut(")];

/// Method names shared with the std containers (same list as the
/// hotpath pass): a bare `m.insert(k, v)` resolves by name+arity to any
/// same-named workspace method, so effects neither enter nor leave
/// functions with these names via method-call edges.
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

/// Configuration: which functions carry which leaf effects, and where
/// the journaling contract applies.
#[derive(Debug, Clone)]
pub struct EffectConfig {
    /// Collection mutation primitives — every function that changes
    /// stored documents, index definitions, or the collection set.
    pub mutation_fns: Vec<FnRef>,
    /// Generation-bump primitives (the query-cache invalidation seam).
    pub bump_fns: Vec<FnRef>,
    /// Journal-append primitives. Empty disables the E002 contract.
    pub journal_fns: Vec<FnRef>,
}

impl EffectConfig {
    /// The Materials Project workspace defaults: `raw_apply` — the one
    /// function that write-locks store state, under every `Collection`
    /// mutator and `Database::drop_collection` — mutates;
    /// `Collection::bump_version` is the generation bump; the
    /// `Persister` appenders are the journal.
    pub fn materials_project_defaults() -> Self {
        let parse = |v: &[&str]| v.iter().map(|s| FnRef::parse(s)).collect();
        EffectConfig {
            mutation_fns: parse(&["raw_apply"]),
            bump_fns: parse(&["Collection::bump_version"]),
            journal_fns: parse(&["Persister::append_ops", "Persister::snapshot"]),
        }
    }
}

/// The effect summary of one function, for export into the annotated
/// call graph (`mp-lint callgraph --json`).
#[derive(Debug, Clone, Default)]
pub struct FnEffects {
    /// Is (or transitively calls) a configured mutation primitive.
    pub mutates: bool,
    /// Reaches a generation bump.
    pub bumps: bool,
    /// Reaches a journal append.
    pub journals: bool,
    /// Performs (or transitively reaches) blocking file I/O.
    pub io: bool,
    /// Reaches a work-pool scatter.
    pub scatter: bool,
    /// Lock sites in the body: `(receiver, op, line, rank)` where rank
    /// is the `LockRank` the receiver field is constructed with, when
    /// the workspace scan can attribute it.
    pub locks: Vec<(String, &'static str, usize, Option<String>)>,
}

/// `allow(...)` codes named on a raw line via the mp-lint marker, plus
/// whether a justification follows the closing paren.
fn effect_allows(raw: &str) -> (Vec<String>, bool) {
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
/// comment/attribute block directly above it.
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

impl FileArt {
    /// Is `code` allowed (with any justification state) at 1-based
    /// `line`, by an inline comment, the line directly above, or the
    /// enclosing function level (`fn_line` is the signature line)?
    fn allowed(&self, code: &str, line: usize, fn_line: usize) -> bool {
        let fn_level = fn_allow_line(&self.raw, fn_line);
        [
            self.raw.get(line.wrapping_sub(1)).map(String::as_str),
            self.raw.get(line.wrapping_sub(2)).map(String::as_str),
            Some(fn_level),
        ]
        .into_iter()
        .flatten()
        .any(|src| effect_allows(src).0.iter().any(|c| c == code))
    }
}

/// `(body-open line, body-open column, end line)` of the function whose
/// signature starts at 1-based `fn_line`, by brace matching over the
/// masked text.
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

/// Resolve a ref list against the graph; every ref with zero matches is
/// one `E007` (config drift would silently disable the pass).
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
                    "E007",
                    r.display(),
                    format!(
                        "effects config names {kind} `{}` but the workspace defines no such \
                         function — the pass would silently skip it",
                        r.display()
                    ),
                )
                .with_suggestion(
                    "update EffectConfig (or materials_project_defaults) to match the renamed \
                     or removed function",
                ),
            );
        }
    }
    mask
}

/// Transitive closure of an effect up the call graph: a caller carries
/// the effect when any of its call edges reaches a function carrying
/// it. Propagation never passes *through* a std-shadowed method name
/// (the edge may be a plain container call resolved by coincidence).
fn propagate(graph: &CallGraph, seed: &[bool]) -> Vec<bool> {
    let shadowed = |v: usize| -> bool {
        let f = &graph.fns[v];
        f.impl_type.is_some() && STD_SHADOWED.contains(&f.name.as_str())
    };
    let mut eff = seed.to_vec();
    let mut q: VecDeque<usize> = (0..eff.len()).filter(|&i| eff[i]).collect();
    while let Some(u) = q.pop_front() {
        if shadowed(u) {
            continue;
        }
        for &(caller, _line) in &graph.rin[u] {
            if !eff[caller] {
                eff[caller] = true;
                q.push_back(caller);
            }
        }
    }
    eff
}

/// Every masked body line of function `i` (1-based), with the signature
/// clipped off the body-open line.
fn body_lines<'a>(
    graph: &CallGraph,
    arts: &'a BTreeMap<&str, FileArt>,
    i: usize,
) -> Vec<(usize, &'a str)> {
    let f = &graph.fns[i];
    let Some(art) = arts.get(f.file.as_str()) else {
        return Vec::new();
    };
    let Some((ol, oc, end)) = fn_extent(&art.masked, f.line) else {
        return Vec::new();
    };
    (ol..=end)
        .map(|lineno| {
            let full = art.masked.get(lineno - 1).map(String::as_str).unwrap_or("");
            let seg = if lineno == ol {
                full.get(oc..).unwrap_or("")
            } else {
                full
            };
            (lineno, seg)
        })
        .collect()
}

fn matches_any(seg: &str, pats: &[&str]) -> bool {
    pats.iter().any(|p| !match_positions(seg, p).is_empty())
}

/// `field name → LockRank name`, harvested from constructor lines of
/// the form `journal: OrderedMutex::new(LockRank::Journal, …)`.
fn lock_ranks(sources: &BTreeMap<String, String>) -> BTreeMap<String, String> {
    let mut ranks = BTreeMap::new();
    let ctors = [
        concat!("OrderedMutex::", "new(LockRank::"),
        concat!("OrderedRwLock::", "new(LockRank::"),
    ];
    for src in sources.values() {
        for line in mask_source(src).lines() {
            for ctor in ctors {
                for pos in match_positions(line, ctor) {
                    let rank: String = line[pos + ctor.len()..]
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    // The field being initialized precedes the call:
                    // `field: OrderedMutex::new(…`.
                    let before = line[..pos].trim_end();
                    let Some(head) = before.strip_suffix(':') else {
                        continue;
                    };
                    let field: String = head
                        .chars()
                        .rev()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect::<String>()
                        .chars()
                        .rev()
                        .collect();
                    if !field.is_empty() && !rank.is_empty() {
                        ranks.insert(field, rank.clone());
                    }
                }
            }
        }
    }
    ranks
}

/// Everything the checks and the export both need.
struct Computed {
    mutation: Vec<bool>,
    bump: Vec<bool>,
    journal: Vec<bool>,
    any_journal: bool,
    mut_star: Vec<bool>,
    bump_star: Vec<bool>,
    journal_star: Vec<bool>,
    io_star: Vec<bool>,
    scatter_star: Vec<bool>,
    ranks: BTreeMap<String, String>,
}

fn compute(
    graph: &CallGraph,
    arts: &BTreeMap<&str, FileArt>,
    sources: &BTreeMap<String, String>,
    config: &EffectConfig,
    diags: &mut Vec<Diagnostic>,
) -> Computed {
    let n = graph.fns.len();
    let mutation = resolve(graph, &config.mutation_fns, "mutation primitive", diags);
    let bump = resolve(graph, &config.bump_fns, "generation bump", diags);
    let journal = resolve(graph, &config.journal_fns, "journal append", diags);
    let mut io = vec![false; n];
    let mut scatter = vec![false; n];
    for i in 0..n {
        for (_, seg) in body_lines(graph, arts, i) {
            io[i] |= matches_any(seg, IO_PATTERNS);
            scatter[i] |= matches_any(seg, SCATTER_PATTERNS);
        }
    }
    Computed {
        any_journal: journal.iter().any(|&b| b),
        mut_star: propagate(graph, &mutation),
        bump_star: propagate(graph, &bump),
        journal_star: propagate(graph, &journal),
        io_star: propagate(graph, &io),
        scatter_star: propagate(graph, &scatter),
        mutation,
        bump,
        journal,
        ranks: lock_ranks(sources),
    }
}

fn build_arts(sources: &BTreeMap<String, String>) -> BTreeMap<&str, FileArt> {
    sources
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
        .collect()
}

/// Effect summaries for every function, aligned with `graph.fns`. Used
/// by the annotated call-graph export.
pub fn effect_summaries(
    graph: &CallGraph,
    sources: &BTreeMap<String, String>,
    config: &EffectConfig,
) -> Vec<FnEffects> {
    let arts = build_arts(sources);
    let mut sink = Vec::new();
    let c = compute(graph, &arts, sources, config, &mut sink);
    graph
        .fns
        .iter()
        .enumerate()
        .map(|(i, f)| FnEffects {
            mutates: c.mut_star[i],
            bumps: c.bump_star[i],
            journals: c.journal_star[i],
            io: c.io_star[i],
            scatter: c.scatter_star[i],
            locks: f
                .locks
                .iter()
                .map(|l| {
                    let field = l.receiver.rsplit('.').next().unwrap_or(&l.receiver);
                    (
                        l.receiver.clone(),
                        l.op,
                        l.line,
                        c.ranks.get(field).cloned(),
                    )
                })
                .collect(),
        })
        .collect()
}

/// The effect-annotated call graph as JSON: every function with its
/// effect summary, lock sites, and sequenced ordering trace
/// ([`crate::order::order_traces`] with the Materials Project
/// defaults), plus the resolved edges. This is the artifact CI
/// uploads.
pub fn effect_graph_json(
    graph: &CallGraph,
    sources: &BTreeMap<String, String>,
    config: &EffectConfig,
) -> String {
    let effects = effect_summaries(graph, sources, config);
    let traces = crate::order::order_traces(
        graph,
        sources,
        &crate::order::OrderConfig::materials_project_defaults(),
    );
    let fns: Vec<serde_json::Value> = graph
        .fns
        .iter()
        .zip(&effects)
        .enumerate()
        .map(|(i, (f, e))| {
            serde_json::json!({
                "index": i,
                "crate": f.crate_name,
                "file": f.file,
                "line": f.line,
                "name": f.qualified(),
                "pub": f.is_pub,
                "effects": {
                    "mutates": e.mutates,
                    "bumps_generation": e.bumps,
                    "appends_journal": e.journals,
                    "blocking_io": e.io,
                    "scatter": e.scatter,
                },
                "locks": e.locks.iter().map(|(recv, op, line, rank)| {
                    serde_json::json!({
                        "receiver": recv, "op": op, "line": line, "rank": rank,
                    })
                }).collect::<Vec<_>>(),
                "trace": traces[i].iter().map(|t| {
                    serde_json::json!({
                        "kind": t.kind, "line": t.line, "via": t.via,
                    })
                }).collect::<Vec<_>>(),
            })
        })
        .collect();
    let edges: Vec<serde_json::Value> = graph
        .edges
        .iter()
        .map(|e| serde_json::json!({"from": e.from, "to": e.to, "line": e.line}))
        .collect();
    serde_json::json!({"functions": fns, "edges": edges}).to_string()
}

/// Role map for the DOT rendering: mutation primitives gold, journal
/// appenders green, generation bumps blue, I/O performers red.
pub fn effect_roles(
    graph: &CallGraph,
    sources: &BTreeMap<String, String>,
    config: &EffectConfig,
) -> BTreeMap<usize, &'static str> {
    let arts = build_arts(sources);
    let mut sink = Vec::new();
    let c = compute(graph, &arts, sources, config, &mut sink);
    let mut roles = BTreeMap::new();
    for i in 0..graph.fns.len() {
        if c.mutation[i] {
            roles.insert(i, "mutates");
        } else if c.journal[i] {
            roles.insert(i, "journals");
        } else if c.bump[i] {
            roles.insert(i, "bumps");
        } else if c.io_star[i] {
            roles.insert(i, "io");
        }
    }
    roles
}

/// One live `let`-bound lock guard while walking a function body.
struct LiveGuard {
    name: String,
    receiver: String,
    line: usize,
    /// Brace depth at the binding line's start; the guard dies when the
    /// walk's depth drops below it.
    depth: i64,
}

/// The receiver expression ending just before byte `pos`:
/// `self.journal.lock()` → `self.journal`.
fn receiver_before(seg: &str, pos: usize) -> String {
    let head = &seg[..pos];
    let start = head
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
        .map(|p| p + 1)
        .unwrap_or(0);
    head[start..].trim_matches('.').to_string()
}

/// E003: walk each body once, tracking live bound guards by brace
/// depth (and explicit `drop(name)`), and flag lines inside a guard
/// extent that perform blocking I/O or a scatter, directly or through a
/// call edge.
fn check_lock_extents(
    graph: &CallGraph,
    arts: &BTreeMap<&str, FileArt>,
    c: &Computed,
    diags: &mut Vec<Diagnostic>,
) {
    let lock_ops: [&str; 3] = [
        concat!(".lo", "ck()"),
        concat!(".re", "ad()"),
        concat!(".wri", "te()"),
    ];
    let shadowed = |v: usize| -> bool {
        let f = &graph.fns[v];
        f.impl_type.is_some() && STD_SHADOWED.contains(&f.name.as_str())
    };
    for (i, f) in graph.fns.iter().enumerate() {
        let Some(art) = arts.get(f.file.as_str()) else {
            continue;
        };
        let body = body_lines(graph, arts, i);
        if body.is_empty() {
            continue;
        }
        // Call edges out of this function, by line.
        let mut calls_at: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(v, line) in &graph.out[i] {
            calls_at.entry(line).or_default().push(v);
        }
        let mut depth = 0i64;
        let mut guards: Vec<LiveGuard> = Vec::new();
        for (lineno, seg) in body {
            // A guard bound on an earlier line covers this one.
            if !guards.is_empty() && lineno > guards[0].line {
                let offending = guards.iter().find(|_| {
                    let direct =
                        matches_any(seg, IO_PATTERNS) || matches_any(seg, SCATTER_PATTERNS);
                    let via_call = calls_at.get(&lineno).is_some_and(|vs| {
                        vs.iter()
                            .any(|&v| !shadowed(v) && (c.io_star[v] || c.scatter_star[v]))
                    });
                    direct || via_call
                });
                if let Some(g) = offending {
                    if !art.allowed("E003", lineno, f.line) {
                        let field = g.receiver.rsplit('.').next().unwrap_or(&g.receiver);
                        let rank = c
                            .ranks
                            .get(field)
                            .map(|r| format!(" (rank {r})"))
                            .unwrap_or_default();
                        diags.push(
                            Diagnostic::error(
                                "E003",
                                format!("{}:{lineno}", f.file),
                                format!(
                                    "blocking I/O or work-pool scatter in `{}` while holding \
                                     the guard `{}` on `{}`{rank} acquired at line {}; one slow \
                                     write serializes every thread waiting on that lock",
                                    f.qualified(),
                                    g.name,
                                    g.receiver,
                                    g.line
                                ),
                            )
                            .with_suggestion(
                                "move the I/O outside the guard (snapshot under the lock, write \
                                 outside it), use a chained temporary that releases at the end \
                                 of the statement, or annotate \
                                 `mp-lint: allow(E003) — <justification>`",
                            ),
                        );
                    }
                }
            }
            // New bound guards on this line: `let [mut] name = …op()`.
            for op in lock_ops {
                for pos in match_positions(seg, op) {
                    let trimmed = seg.trim_start();
                    let Some(binding) = trimmed
                        .strip_prefix("let ")
                        .map(|r| r.strip_prefix("mut ").unwrap_or(r))
                    else {
                        continue;
                    };
                    let name: String = binding
                        .chars()
                        .take_while(|ch| ch.is_alphanumeric() || *ch == '_')
                        .collect();
                    if name.is_empty() || !binding[name.len()..].trim_start().starts_with('=') {
                        continue;
                    }
                    guards.push(LiveGuard {
                        name,
                        receiver: receiver_before(seg, pos),
                        line: lineno,
                        depth,
                    });
                }
            }
            // Explicit early release.
            guards.retain(|g| g.line == lineno || !seg.contains(&format!("drop({})", g.name)));
            for ch in seg.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        guards.retain(|g| g.depth <= depth);
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Run the effects pass over a prebuilt call graph. `sources` maps the
/// summary-relative file path of every scanned file to its raw text;
/// `design` is the text of `DESIGN.md` when available (its E-code
/// coverage is part of the E007 drift check).
pub fn analyze_effects(
    graph: &CallGraph,
    sources: &BTreeMap<String, String>,
    config: &EffectConfig,
    design: Option<&str>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let arts = build_arts(sources);
    let c = compute(graph, &arts, sources, config, &mut diags);
    let n = graph.fns.len();

    // E006: a justification-free E-allow is wrong anywhere.
    for (path, art) in &arts {
        for (idx, raw) in art.raw.iter().enumerate() {
            if !raw.contains(ALLOW_MARK) {
                continue;
            }
            let (codes, justified) = effect_allows(raw);
            if !justified && codes.iter().any(|code| code.starts_with('E')) {
                diags.push(
                    Diagnostic::error(
                        "E006",
                        format!("{path}:{}", idx + 1),
                        "`mp-lint: allow(E...)` has no justification".to_string(),
                    )
                    .with_suggestion(
                        "append a justification after the closing paren, e.g. \
                         `mp-lint: allow(E002) — staging area is rebuilt from scratch on open`",
                    ),
                );
            }
        }
    }

    // E004: COW violations are a flat source property.
    for (path, art) in &arts {
        for (idx, masked) in art.masked.iter().enumerate() {
            if matches_any(masked, COW_PATTERNS) && !art.allowed("E004", idx + 1, idx + 1) {
                diags.push(
                    Diagnostic::error(
                        "E004",
                        format!("{path}:{}", idx + 1),
                        "in-place mutation of Arc-shared data — concurrent snapshot readers \
                         hold clones of this Arc and would observe the edit mid-scan"
                            .to_string(),
                    )
                    .with_suggestion(
                        "copy-on-write instead: build the new value and swap the Arc under the \
                         collection lock",
                    ),
                );
            }
        }
    }

    // E001: every mutation primitive must reach a generation bump.
    for i in (0..n).filter(|&i| c.mutation[i]) {
        let f = &graph.fns[i];
        if !c.bump_star[i] && !arts[f.file.as_str()].allowed("E001", f.line, f.line) {
            diags.push(
                Diagnostic::error(
                    "E001",
                    format!("{}:{}", f.file, f.line),
                    format!(
                        "mutation primitive `{}` never reaches a generation bump — the query \
                         cache would keep serving results computed before this write",
                        f.qualified()
                    ),
                )
                .with_suggestion(
                    "call the generation bump after the mutation commits (while still holding \
                     the collection lock)",
                ),
            );
        }
    }

    // E005: a generation bump must happen under a lock taken earlier in
    // the same body, or the bump can race the cache's generation check.
    for i in 0..n {
        let f = &graph.fns[i];
        for &(v, line) in &graph.out[i] {
            if !c.bump[v] {
                continue;
            }
            let locked_before = f.locks.iter().any(|l| l.line <= line);
            if !locked_before && !arts[f.file.as_str()].allowed("E005", line, f.line) {
                diags.push(
                    Diagnostic::error(
                        "E005",
                        format!("{}:{line}", f.file),
                        format!(
                            "`{}` bumps the generation without holding a lock acquired earlier \
                             in the body — a concurrent cached read can validate against the \
                             new generation while seeing the old documents",
                            f.qualified()
                        ),
                    )
                    .with_suggestion(
                        "acquire the collection lock before the bump, so the generation and \
                         the documents move together",
                    ),
                );
            }
        }
    }

    // E002: the journal-coverage contract (disabled when no journal fns
    // are configured — there is no journal to cover with).
    if c.any_journal {
        // The raw apply must be reachable only through a function that
        // appends first: a mutation primitive needs a journaling caller,
        // and every caller must reach the journal. (Callers of a
        // std-shadowed primitive name are resolved by coincidence, so
        // those are held to the first half only.)
        for m in (0..n).filter(|&m| c.mutation[m]) {
            let prim = &graph.fns[m];
            let mut callers: Vec<usize> = graph.rin[m].iter().map(|&(u, _)| u).collect();
            callers.sort_unstable();
            callers.dedup();
            if !callers.iter().any(|&u| c.journal_star[u])
                && !arts[prim.file.as_str()].allowed("E002", prim.line, prim.line)
            {
                diags.push(
                    Diagnostic::error(
                        "E002",
                        format!("{}:{}", prim.file, prim.line),
                        format!(
                            "mutation primitive `{}` has no journaling caller — no path can \
                             persist this kind of write",
                            prim.qualified()
                        ),
                    )
                    .with_suggestion(
                        "route the operation through the commit function (adding a JournalOp \
                         variant if none fits), or annotate the primitive with \
                         `mp-lint: allow(E002) — <justification>`",
                    ),
                );
            }
            if prim.impl_type.is_some() && STD_SHADOWED.contains(&prim.name.as_str()) {
                continue;
            }
            for u in callers {
                let f = &graph.fns[u];
                if c.journal_star[u] || arts[f.file.as_str()].allowed("E002", f.line, f.line) {
                    continue;
                }
                diags.push(
                    Diagnostic::error(
                        "E002",
                        format!("{}:{}", f.file, f.line),
                        format!(
                            "`{}` calls mutation primitive `{}` but never reaches the journal — \
                             recovery would replay to a state missing this write",
                            f.qualified(),
                            prim.qualified()
                        ),
                    )
                    .with_suggestion(
                        "mutate through the commit function, which appends the JournalOp before \
                         it applies, or annotate `mp-lint: allow(E002) — <justification>` \
                         stating why durability is not part of this function's contract",
                    ),
                );
            }
        }
    }

    // E003: no blocking I/O or scatter under a bound Ordered guard.
    check_lock_extents(graph, &arts, &c, &mut diags);

    // E007 (second half): DESIGN.md must document every code — the
    // allow policy is part of the public contract.
    if let Some(text) = design {
        for code in EFFECT_CODES {
            if !text.contains(code) {
                diags.push(
                    Diagnostic::error(
                        "E007",
                        "DESIGN.md",
                        format!(
                            "DESIGN.md does not document `{code}` — every effects code and its \
                             allow policy must be specified"
                        ),
                    )
                    .with_suggestion("add the code to the effects section of DESIGN.md"),
                );
            }
        }
    }

    diags
}

/// Scan the workspace at `root` and run the pass with the Materials
/// Project defaults; `root/DESIGN.md` participates in the E007 check
/// when present.
pub fn analyze_effects_tree(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let graph = scan_tree(root)?;
    let mut sources: BTreeMap<String, String> = BTreeMap::new();
    for f in &graph.fns {
        if !sources.contains_key(&f.file) {
            let text = std::fs::read_to_string(root.join(&f.file))?;
            sources.insert(f.file.clone(), text);
        }
    }
    let design = std::fs::read_to_string(root.join("DESIGN.md")).ok();
    Ok(analyze_effects(
        &graph,
        &sources,
        &EffectConfig::materials_project_defaults(),
        design.as_deref(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize_source;
    use std::collections::BTreeSet;

    fn graph_and_sources(files: &[(&str, &str)]) -> (CallGraph, BTreeMap<String, String>) {
        let mut fns = Vec::new();
        let mut sources = BTreeMap::new();
        for (path, src) in files {
            fns.extend(summarize_source(path, src));
            sources.insert((*path).to_string(), (*src).to_string());
        }
        let mut deps = BTreeMap::new();
        deps.insert("a".to_string(), BTreeSet::new());
        deps.insert(
            "api".to_string(),
            ["a".to_string()].into_iter().collect::<BTreeSet<_>>(),
        );
        (CallGraph::build(fns, &deps), sources)
    }

    fn cfg(mutation: &[&str], bump: &[&str], journal: &[&str]) -> EffectConfig {
        let parse = |v: &[&str]| v.iter().map(|s| FnRef::parse(s)).collect();
        EffectConfig {
            mutation_fns: parse(mutation),
            bump_fns: parse(bump),
            journal_fns: parse(journal),
        }
    }

    /// A store whose primitive locks, mutates, and bumps — the shape
    /// the defaults expect — plus a journaling caller.
    const CLEAN_STORE: &str = concat!(
        "pub struct Coll;\nimpl Coll {\n",
        "  pub fn insert_doc(&self, d: Value) {\n",
        "    let mut g = self.state.write();\n",
        "    g.push(d);\n",
        "    self.bump_version();\n",
        "  }\n",
        "  pub(crate) fn bump_version(&self) {}\n",
        "}\n",
        "pub struct Jr;\nimpl Jr {\n",
        "  pub fn log(&mut self, op: &Op) {}\n",
        "}\n",
        "pub struct Dur;\nimpl Dur {\n",
        "  pub fn store_doc(&self, d: Value) {\n",
        "    self.c.insert_doc(d);\n",
        "    self.j.log(&op(d));\n",
        "  }\n",
        "}\n"
    );

    fn clean_cfg() -> EffectConfig {
        cfg(&["Coll::insert_doc"], &["Coll::bump_version"], &["Jr::log"])
    }

    #[test]
    fn clean_store_has_no_findings() {
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", CLEAN_STORE)]);
        let diags = analyze_effects(&g, &s, &clean_cfg(), None);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn e001_mutation_without_bump() {
        let src = CLEAN_STORE.replace("    self.bump_version();\n", "");
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", &src)]);
        let diags = analyze_effects(&g, &s, &clean_cfg(), None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E001");
        assert!(diags[0].message.contains("a::Coll::insert_doc"));
    }

    #[test]
    fn e002_caller_without_journal() {
        let src = CLEAN_STORE.replace("    self.j.log(&op(d));\n", "");
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", &src)]);
        // A separate batch importer gives the primitive a journaling
        // caller, so the non-journaling caller is the only finding.
        let importer = concat!(
            "pub fn import(c: &Coll, j: &mut Jr, d: Value) {\n",
            "  c.insert_doc(d);\n",
            "  j.log(&op(d));\n",
            "}\n"
        );
        let full = format!("{src}{importer}");
        let (g2, s2) = graph_and_sources(&[("crates/a/src/lib.rs", &full)]);
        let diags = analyze_effects(&g2, &s2, &clean_cfg(), None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E002");
        assert!(diags[0].message.contains("a::Dur::store_doc"));
        // Without the importer, the uncovered primitive fires too.
        let diags = analyze_effects(&g, &s, &clean_cfg(), None);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.code == "E002"));
    }

    #[test]
    fn e002_every_caller_needs_journal_or_allow() {
        let api = concat!(
            "pub fn upload(c: &Coll, d: Value) {\n",
            "  c.insert_doc(d);\n",
            "}\n"
        );
        let (g, s) = graph_and_sources(&[
            ("crates/a/src/lib.rs", CLEAN_STORE),
            ("crates/api/src/lib.rs", api),
        ]);
        let config = clean_cfg();
        let diags = analyze_effects(&g, &s, &config, None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E002");
        assert!(diags[0].message.contains("api::upload"));
        // A justified fn-level allow silences it.
        let allowed = format!(
            "// {}E002) — staging uploads are rebuilt from scratch on open\n{api}",
            ALLOW_MARK
        );
        let (g, s) = graph_and_sources(&[
            ("crates/a/src/lib.rs", CLEAN_STORE),
            ("crates/api/src/lib.rs", &allowed),
        ]);
        let diags = analyze_effects(&g, &s, &config, None);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn e003_io_under_bound_guard() {
        let src = concat!(
            "pub struct S;\nimpl S {\n",
            "  pub fn persist_all(&self) {\n",
            "    let g = self.state.lock();\n",
            "    let _ = std::",
            "fs::write(\"x\", b\"y\");\n",
            "    drop(g);\n",
            "  }\n",
            "}\n"
        );
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_effects(&g, &s, &cfg(&[], &[], &[]), None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E003");
        assert!(diags[0].path.ends_with(":5"), "{}", diags[0].path);
        assert!(diags[0].message.contains("`g`"), "{}", diags[0].message);
    }

    #[test]
    fn e003_transitive_io_through_a_call() {
        let src = concat!(
            "pub struct S;\nimpl S {\n",
            "  pub fn checkpoint(&self) {\n",
            "    let g = self.state.lock();\n",
            "    self.persist_now();\n",
            "  }\n",
            "  fn persist_now(&self) {\n",
            "    let _ = std::",
            "fs::write(\"x\", b\"y\");\n",
            "  }\n",
            "}\n"
        );
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_effects(&g, &s, &cfg(&[], &[], &[]), None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E003");
        assert!(diags[0].path.ends_with(":5"), "{}", diags[0].path);
    }

    /// The morsel-driven fan-out is a scatter too: dispatching
    /// `scatter_morsels` while a guard is bound parks the pool behind it
    /// exactly like the classic per-job `scatter`.
    #[test]
    fn e003_morsel_scatter_under_bound_guard() {
        let src = concat!(
            "pub struct S;\nimpl S {\n",
            "  pub fn scan_all(&self) {\n",
            "    let g = self.state.lock();\n",
            "    let _ = self.pool.scatter_",
            "morsels(&g.docs, 64, |m| m.len());\n",
            "    drop(g);\n",
            "  }\n",
            "}\n"
        );
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_effects(&g, &s, &cfg(&[], &[], &[]), None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E003");
        assert!(diags[0].path.ends_with(":5"), "{}", diags[0].path);
        assert!(diags[0].message.contains("`g`"), "{}", diags[0].message);
    }

    #[test]
    fn e003_chained_temporary_is_exempt_and_drop_ends_the_extent() {
        let src = concat!(
            "pub struct S;\nimpl S {\n",
            "  pub fn append(&self) {\n",
            "    self.journal.lock().write_entry();\n",
            "  }\n",
            "  pub fn staged(&self) {\n",
            "    let g = self.state.lock();\n",
            "    let n = g.len();\n",
            "    drop(g);\n",
            "    let _ = (n, std::",
            "fs::write(\"x\", b\"y\"));\n",
            "  }\n",
            "}\n"
        );
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_effects(&g, &s, &cfg(&[], &[], &[]), None);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn e003_fn_level_allow_suppresses() {
        let src = format!(
            concat!(
                "pub struct S;\nimpl S {{\n",
                "  // {}E003) — snapshot must exclude appenders for its whole duration\n",
                "  pub fn checkpoint(&self) {{\n",
                "    let g = self.state.lock();\n",
                "    let _ = std::",
                "fs::write(\"x\", b\"y\");\n",
                "  }}\n",
                "}}\n"
            ),
            ALLOW_MARK
        );
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", &src)]);
        let diags = analyze_effects(&g, &s, &cfg(&[], &[], &[]), None);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn e004_arc_get_mut_is_a_cow_violation() {
        let src = concat!(
            "pub fn edit(d: &mut Arc<Value>) {\n",
            "  if let Some(v) = Arc::get_",
            "mut(d) { v.take(); }\n",
            "}\n"
        );
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_effects(&g, &s, &cfg(&[], &[], &[]), None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E004");
    }

    #[test]
    fn e005_bump_before_lock() {
        let src = concat!(
            "pub struct Coll;\nimpl Coll {\n",
            "  pub fn insert_doc(&self, d: Value) {\n",
            "    self.bump_version();\n",
            "    let mut g = self.state.write();\n",
            "    g.push(d);\n",
            "  }\n",
            "  pub(crate) fn bump_version(&self) {}\n",
            "}\n"
        );
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_effects(
            &g,
            &s,
            &cfg(&["Coll::insert_doc"], &["Coll::bump_version"], &[]),
            None,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E005");
        assert!(diags[0].path.ends_with(":4"), "{}", diags[0].path);
    }

    #[test]
    fn e006_bare_allow() {
        let src = format!(
            concat!(
                "pub fn f() {{\n",
                "  // {}E002)\n",
                "  let x = 1;\n",
                "}}\n"
            ),
            ALLOW_MARK
        );
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", &src)]);
        let diags = analyze_effects(&g, &s, &cfg(&[], &[], &[]), None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E006");
    }

    #[test]
    fn e007_config_drift_and_design_coverage() {
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", "pub fn real() {}\n")]);
        let diags = analyze_effects(&g, &s, &cfg(&["Gone::missing"], &[], &[]), None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E007");
        assert!(diags[0].message.contains("Gone::missing"));
        // A DESIGN.md missing exactly one code fires exactly once.
        let design = "E001 E002 E003 E004 E005 E007";
        let diags = analyze_effects(&g, &s, &cfg(&[], &[], &[]), Some(design));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E007");
        assert!(diags[0].message.contains("E006"), "{}", diags[0].message);
    }

    #[test]
    fn shadowed_names_do_not_manufacture_mutation() {
        // A fn calling `map.clear()` on a std container must not be
        // flagged just because `Coll::clear` resolves by name.
        let store = concat!(
            "pub struct Coll;\nimpl Coll {\n",
            "  pub fn clear(&self) {\n",
            "    let mut g = self.state.write();\n",
            "    g.wipe();\n",
            "    self.bump_version();\n",
            "  }\n",
            "  pub(crate) fn bump_version(&self) {}\n",
            "}\n",
            "pub struct Jr;\nimpl Jr {\n",
            "  pub fn log(&mut self, op: &Op) {}\n",
            "}\n",
            "pub fn import(c: &Coll, j: &mut Jr) {\n",
            "  c.clear();\n",
            "  j.log(&op());\n",
            "}\n"
        );
        let api = concat!(
            "pub fn stats(m: &mut BTreeMap<String, u64>) {\n",
            "  m.clear();\n",
            "}\n"
        );
        let (g, s) = graph_and_sources(&[
            ("crates/a/src/lib.rs", store),
            ("crates/api/src/lib.rs", api),
        ]);
        let config = cfg(&["Coll::clear"], &["Coll::bump_version"], &["Jr::log"]);
        let diags = analyze_effects(&g, &s, &config, None);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn effect_summaries_annotate_the_graph() {
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", CLEAN_STORE)]);
        let effects = effect_summaries(&g, &s, &clean_cfg());
        let idx = |name: &str| {
            g.fns
                .iter()
                .position(|f| f.qualified() == name)
                .unwrap_or_else(|| panic!("{name} not found"))
        };
        let dur = &effects[idx("a::Dur::store_doc")];
        assert!(dur.mutates && dur.bumps && dur.journals);
        let coll = &effects[idx("a::Coll::insert_doc")];
        assert!(coll.mutates && coll.bumps && !coll.journals);
        let json = effect_graph_json(&g, &s, &clean_cfg());
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(v["functions"].as_array().is_some_and(|a| !a.is_empty()));
        assert!(v["edges"].as_array().is_some_and(|a| !a.is_empty()));
    }

    #[test]
    fn lock_ranks_attributed_from_constructors() {
        let src = concat!(
            "pub struct S;\nimpl S {\n",
            "  pub fn new(p: P) -> Self {\n",
            "    S { journal: OrderedMutex::",
            "new(LockRank::Journal, p) }\n",
            "  }\n",
            "  pub fn checkpoint(&self) {\n",
            "    let g = self.journal.lock();\n",
            "    let _ = std::",
            "fs::write(\"x\", b\"y\");\n",
            "  }\n",
            "}\n"
        );
        let (g, s) = graph_and_sources(&[("crates/a/src/lib.rs", src)]);
        let diags = analyze_effects(&g, &s, &cfg(&[], &[], &[]), None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("rank Journal"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn workspace_is_effects_clean() {
        // The acceptance gate: zero E0xx findings on the whole workspace
        // with the Materials Project defaults — every mutation bumps,
        // every durable path journals, no lock spans I/O, and DESIGN.md
        // documents the codes.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diags = analyze_effects_tree(&root).expect("scan workspace");
        assert!(
            diags.is_empty(),
            "workspace effects findings:\n{}",
            crate::diagnostics::render(&diags)
        );
    }
}
