//! Pass 8: interprocedural mutation-effect analysis (`E0xx`).
//!
//! The datastore's consistency story rests on two invariants that no
//! single function can see locally: every mutation must **bump the
//! collection generation** (or the query cache serves stale results),
//! and no **Ordered lock may be held across blocking I/O** or a
//! work-pool scatter (or one slow fsync serializes the whole server).
//! This pass proves both statically. (That every mutation is journaled
//! first is carried by types instead: store state is written only
//! inside `mp_docstore::journal`.) It reuses the mp-flow machinery —
//! per-function summaries ([`crate::summary`]) and the workspace call
//! graph ([`crate::callgraph`]) — and computes per-function *effect
//! summaries* (mutates / bumps-generation / blocking I/O / scatter),
//! propagated bottom-up through the graph.
//!
//! Codes (all `Error` severity — CI gates the workspace at zero):
//! - `E001`: a configured mutation primitive that never reaches a
//!   generation bump — its writes are invisible to the query cache.
//! - `E002`: *retired* — journal coverage is a type now (a store's
//!   state lock can be written only inside `mp_docstore::journal`).
//! - `E003`: blocking I/O or a work-pool scatter (direct or transitive)
//!   while a *bound* Ordered-lock guard is live. A chained temporary
//!   (`self.journal.lock().log(op)`) releases at the end of the
//!   statement and is exempt by construction.
//! - `E004`: *retired* — in-place mutation of `Arc`-shared data is
//!   refused by clippy (`disallowed-methods` in the root `clippy.toml`).
//! - `E005`: a generation bump not preceded by a lock acquisition in the
//!   same body — the bump can race the query cache's generation check.
//! - `E006`: an `mp-lint: allow(E...)` with no justification.
//! - `E007`: config drift — the [`EffectConfig`] names a function the
//!   workspace no longer defines, or `DESIGN.md` fails to document one
//!   of the `E0xx` codes (the allow policy is part of the contract).
//!
//! Allows follow the one policy (DESIGN §7 "Allow policy").
//!
//! Known granularity limits, by design: effects propagate through calls
//! resolved by name+arity, so the std-shadowed method names
//! ([`crate::core::shadowed`]) neither grant nor propagate effects — a
//! plain `map.clear()` must not make its caller a collection mutator,
//! and the cost is that the function enclosing a genuine
//! `Collection::clear` call is not marked as mutating. Guard extents
//! are tracked per `let`-binding line; destructuring bindings
//! (`if let Some(g) = …read()`) are not tracked.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::concurrency::{match_positions, receiver_before};
use crate::core::{
    design_coverage, matches_any, reach, resolve, shadowed, unjustified_allows, Dir, Drift, FnRef,
    Scope, Workspace,
};
use crate::diagnostics::Diagnostic;

const DRIFT: Drift = Drift {
    code: "E007",
    pass: "effects",
    config: "EffectConfig",
};

/// Every code this pass can emit; `DESIGN.md` must document each one.
pub const EFFECT_CODES: &[&str] = &["E001", "E003", "E005", "E006", "E007"];

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

/// Work-pool scatter marker: the one call that fans work out to scoped
/// threads, `scatter_morsels` (which also runs on the calling thread and
/// joins the others, so a held guard blocks every thread that needs it
/// while the caller waits for them).
const SCATTER_PATTERNS: &[&str] = &[concat!(".scatter_", "morsels(")];

/// Configuration: which functions carry which leaf effects.
#[derive(Debug, Clone)]
pub struct EffectConfig {
    /// Collection mutation primitives — every function that changes
    /// stored documents, index definitions, or the collection set.
    pub mutation_fns: Vec<FnRef>,
    /// Generation-bump primitives (the query-cache invalidation seam).
    pub bump_fns: Vec<FnRef>,
}

impl EffectConfig {
    /// The Materials Project workspace defaults: `raw_apply` — the one
    /// function that write-locks store state, under every `Collection`
    /// mutator and `Database::drop_collection` — mutates;
    /// `Collection::bump_version` is the generation bump.
    pub fn materials_project_defaults() -> Self {
        EffectConfig {
            mutation_fns: FnRef::list(&["raw_apply"]),
            bump_fns: FnRef::list(&["Collection::bump_version"]),
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
    /// Performs (or transitively reaches) blocking file I/O.
    pub io: bool,
    /// Reaches a work-pool scatter.
    pub scatter: bool,
    /// Lock sites in the body: `(receiver, op, line, rank)` where rank
    /// is the `LockRank` the receiver field is constructed with, when
    /// the workspace scan can attribute it.
    pub locks: Vec<(String, &'static str, usize, Option<String>)>,
}

/// Transitive closure of an effect up the call graph: a caller carries
/// the effect when any of its call edges reaches a function carrying
/// it. Propagation never passes *through* a std-shadowed method name
/// (the edge may be a plain container call resolved by coincidence).
fn propagate(graph: &CallGraph, seed: &[bool]) -> Vec<bool> {
    let seeds = (0..seed.len()).filter(|&i| seed[i]).map(|i| (i, None));
    reach(graph, Dir::Callers, seeds, |u, _, _| !shadowed(graph, u)).seen
}

/// `field name → LockRank name`, harvested from constructor lines of
/// the form `journal: OrderedMutex::new(LockRank::Journal, …)`.
fn lock_ranks(ws: &Workspace) -> BTreeMap<String, String> {
    let mut ranks = BTreeMap::new();
    let ctors = [
        concat!("OrderedMutex::", "new(LockRank::"),
        concat!("OrderedRwLock::", "new(LockRank::"),
    ];
    for (_, file) in ws.files(&Scope::GRAPH) {
        for line in &file.masked {
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
    mut_star: Vec<bool>,
    bump_star: Vec<bool>,
    io_star: Vec<bool>,
    scatter_star: Vec<bool>,
    ranks: BTreeMap<String, String>,
}

fn compute(ws: &Workspace, config: &EffectConfig, diags: &mut Vec<Diagnostic>) -> Computed {
    let graph = &ws.graph;
    let n = graph.fns.len();
    let mutation = resolve(
        graph,
        &config.mutation_fns,
        "mutation primitive",
        &DRIFT,
        diags,
    );
    let bump = resolve(graph, &config.bump_fns, "generation bump", &DRIFT, diags);
    let mut io = vec![false; n];
    let mut scatter = vec![false; n];
    for i in 0..n {
        for (_, seg) in ws.body_lines(i) {
            io[i] |= matches_any(seg, IO_PATTERNS);
            scatter[i] |= matches_any(seg, SCATTER_PATTERNS);
        }
    }
    Computed {
        mut_star: propagate(graph, &mutation),
        bump_star: propagate(graph, &bump),
        io_star: propagate(graph, &io),
        scatter_star: propagate(graph, &scatter),
        mutation,
        bump,
        ranks: lock_ranks(ws),
    }
}

/// Effect summaries for every function, aligned with `graph.fns`. Used
/// by the annotated call-graph export.
pub fn effect_summaries(ws: &Workspace, config: &EffectConfig) -> Vec<FnEffects> {
    let c = compute(ws, config, &mut Vec::new());
    ws.graph
        .fns
        .iter()
        .enumerate()
        .map(|(i, f)| FnEffects {
            mutates: c.mut_star[i],
            bumps: c.bump_star[i],
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
/// effect summary and lock sites, plus the resolved edges. This is the
/// artifact CI uploads.
pub fn effect_graph_json(ws: &Workspace, config: &EffectConfig) -> String {
    let graph = &ws.graph;
    let effects = effect_summaries(ws, config);
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
                    "blocking_io": e.io,
                    "scatter": e.scatter,
                },
                "locks": e.locks.iter().map(|(recv, op, line, rank)| {
                    serde_json::json!({
                        "receiver": recv, "op": op, "line": line, "rank": rank,
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

/// Role map for the DOT rendering: mutation primitives gold,
/// generation bumps blue, I/O performers red.
pub fn effect_roles(ws: &Workspace, config: &EffectConfig) -> BTreeMap<usize, &'static str> {
    let c = compute(ws, config, &mut Vec::new());
    let mut roles = BTreeMap::new();
    for i in 0..ws.graph.fns.len() {
        if c.mutation[i] {
            roles.insert(i, "mutates");
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

/// E003: walk each body once, tracking live bound guards by brace
/// depth (and explicit `drop(name)`), and flag lines inside a guard
/// extent that perform blocking I/O or a scatter, directly or through a
/// call edge.
fn check_lock_extents(ws: &Workspace, c: &Computed, diags: &mut Vec<Diagnostic>) {
    let graph = &ws.graph;
    let lock_ops: [&str; 3] = [
        concat!(".lo", "ck()"),
        concat!(".re", "ad()"),
        concat!(".wri", "te()"),
    ];
    for (i, f) in graph.fns.iter().enumerate() {
        let calls_at = ws.calls_by_line(i);
        let mut depth = 0i64;
        let mut guards: Vec<LiveGuard> = Vec::new();
        for (lineno, seg) in ws.body_lines(i) {
            // A guard bound on an earlier line covers this one.
            if !guards.is_empty() && lineno > guards[0].line {
                let offending = guards.iter().find(|_| {
                    let direct =
                        matches_any(seg, IO_PATTERNS) || matches_any(seg, SCATTER_PATTERNS);
                    let via_call = calls_at.get(&lineno).is_some_and(|vs| {
                        vs.iter()
                            .any(|&v| !shadowed(graph, v) && (c.io_star[v] || c.scatter_star[v]))
                    });
                    direct || via_call
                });
                if let Some(g) = offending {
                    if !ws.allowed("E003", i, lineno) {
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

/// Run the effects pass over the workspace; its `DESIGN.md`, when it
/// has one, takes part in the E007 drift check.
pub fn analyze_effects(ws: &Workspace, config: &EffectConfig) -> Vec<Diagnostic> {
    let graph = &ws.graph;
    let mut diags = Vec::new();
    let c = compute(ws, config, &mut diags);
    let n = graph.fns.len();

    // E006: a justification-free E-allow is wrong anywhere.
    diags.extend(unjustified_allows(ws, "E006"));

    // E001: every mutation primitive must reach a generation bump.
    for i in (0..n).filter(|&i| c.mutation[i]) {
        let f = &graph.fns[i];
        if !c.bump_star[i] && !ws.allowed("E001", i, f.line) {
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
            if !locked_before && !ws.allowed("E005", i, line) {
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

    // E003: no blocking I/O or scatter under a bound Ordered guard.
    check_lock_extents(ws, &c, &mut diags);

    // E007 (second half): DESIGN.md must document every code.
    diags.extend(design_coverage(ws, EFFECT_CODES, "effects", &DRIFT));

    diags
}

/// The pass-table entry: the pass with the Materials Project defaults.
pub fn pass(ws: &Workspace) -> Vec<Diagnostic> {
    analyze_effects(ws, &EffectConfig::materials_project_defaults())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{workspace_of, ALLOW_MARKS};
    use std::path::Path;

    /// Crate `api` may call into crate `a`.
    const DEPS: &[(&str, &[&str])] = &[("api", &["a"])];

    fn cfg(mutation: &[&str], bump: &[&str]) -> EffectConfig {
        EffectConfig {
            mutation_fns: FnRef::list(mutation),
            bump_fns: FnRef::list(bump),
        }
    }

    /// A store whose primitive locks, mutates, and bumps — the shape
    /// the defaults expect — plus a caller.
    const CLEAN_STORE: &str = concat!(
        "pub struct Coll;\nimpl Coll {\n",
        "  pub fn insert_doc(&self, d: Value) {\n",
        "    let mut g = self.state.write();\n",
        "    g.push(d);\n",
        "    self.bump_version();\n",
        "  }\n",
        "  pub(crate) fn bump_version(&self) {}\n",
        "}\n",
        "pub struct Dur;\nimpl Dur {\n",
        "  pub fn store_doc(&self, d: Value) {\n",
        "    self.c.insert_doc(d);\n",
        "  }\n",
        "}\n"
    );

    fn clean_cfg() -> EffectConfig {
        cfg(&["Coll::insert_doc"], &["Coll::bump_version"])
    }

    #[test]
    fn clean_store_has_no_findings() {
        let ws = workspace_of(&[("crates/a/src/lib.rs", CLEAN_STORE)], DEPS);
        let diags = analyze_effects(&ws, &clean_cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn e001_mutation_without_bump() {
        let src = CLEAN_STORE.replace("    self.bump_version();\n", "");
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], DEPS);
        let diags = analyze_effects(&ws, &clean_cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E001");
        assert!(diags[0].message.contains("a::Coll::insert_doc"));
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
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], DEPS);
        let diags = analyze_effects(&ws, &cfg(&[], &[]));
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
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], DEPS);
        let diags = analyze_effects(&ws, &cfg(&[], &[]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E003");
        assert!(diags[0].path.ends_with(":5"), "{}", diags[0].path);
    }

    /// Dispatching `scatter_morsels` while a guard is bound blocks the
    /// scoped threads behind it.
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
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], DEPS);
        let diags = analyze_effects(&ws, &cfg(&[], &[]));
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
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], DEPS);
        let diags = analyze_effects(&ws, &cfg(&[], &[]));
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
            ALLOW_MARKS[0]
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], DEPS);
        let diags = analyze_effects(&ws, &cfg(&[], &[]));
        assert!(diags.is_empty(), "{diags:?}");
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
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], DEPS);
        let diags = analyze_effects(&ws, &cfg(&["Coll::insert_doc"], &["Coll::bump_version"]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E005");
        assert!(diags[0].path.ends_with(":4"), "{}", diags[0].path);
    }

    #[test]
    fn e006_bare_allow() {
        let src = format!(
            concat!(
                "pub fn f() {{\n",
                "  // {}E001)\n",
                "  let x = 1;\n",
                "}}\n"
            ),
            ALLOW_MARKS[0]
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], DEPS);
        let diags = analyze_effects(&ws, &cfg(&[], &[]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E006");
    }

    #[test]
    fn e007_config_drift_and_design_coverage() {
        let mut ws = workspace_of(&[("crates/a/src/lib.rs", "pub fn real() {}\n")], DEPS);
        let diags = analyze_effects(&ws, &cfg(&["Gone::missing"], &[]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E007");
        assert!(diags[0].message.contains("Gone::missing"));
        // A DESIGN.md missing exactly one code fires exactly once.
        let design = "E001 E003 E005 E007";
        ws.design = Some(design.to_string());
        let diags = analyze_effects(&ws, &cfg(&[], &[]));
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
            "pub fn import(c: &Coll) {\n",
            "  c.clear();\n",
            "}\n"
        );
        let api = concat!(
            "pub fn stats(m: &mut BTreeMap<String, u64>) {\n",
            "  m.clear();\n",
            "}\n"
        );
        let ws = workspace_of(
            &[
                ("crates/a/src/lib.rs", store),
                ("crates/api/src/lib.rs", api),
            ],
            DEPS,
        );
        let config = cfg(&["Coll::clear"], &["Coll::bump_version"]);
        let diags = analyze_effects(&ws, &config);
        assert!(diags.is_empty(), "{diags:?}");
        let effects = effect_summaries(&ws, &config);
        let mutates = |name: &str| {
            ws.graph
                .fns
                .iter()
                .zip(&effects)
                .any(|(f, e)| f.qualified() == name && e.mutates)
        };
        assert!(mutates("a::Coll::clear"));
        assert!(!mutates("api::stats"));
    }

    #[test]
    fn effect_summaries_annotate_the_graph() {
        let ws = workspace_of(&[("crates/a/src/lib.rs", CLEAN_STORE)], DEPS);
        let effects = effect_summaries(&ws, &clean_cfg());
        let idx = |name: &str| {
            ws.graph
                .fns
                .iter()
                .position(|f| f.qualified() == name)
                .unwrap_or_else(|| panic!("{name} not found"))
        };
        let dur = &effects[idx("a::Dur::store_doc")];
        assert!(dur.mutates && dur.bumps && !dur.io);
        let coll = &effects[idx("a::Coll::insert_doc")];
        assert!(coll.mutates && coll.bumps);
        let json = effect_graph_json(&ws, &clean_cfg());
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
        let ws = workspace_of(&[("crates/a/src/lib.rs", src)], DEPS);
        let diags = analyze_effects(&ws, &cfg(&[], &[]));
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
        // no lock spans I/O, and DESIGN.md
        // documents the codes.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = Workspace::scan(&root, &[&Scope::GRAPH]).expect("scan workspace");
        let diags = pass(&ws);
        assert!(
            diags.is_empty(),
            "workspace effects findings:\n{}",
            crate::diagnostics::render(&diags)
        );
    }
}
