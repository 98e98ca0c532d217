//! Pass 9: interprocedural write-ahead ordering proofs (`O0xx`).
//!
//! The effects pass ([`crate::effects`]) proves *coverage* — every
//! durable mutation reaches the journal — but coverage says nothing
//! about *order*. A write-behind store journals after it applies; a
//! write-ahead store journals first, and acknowledges only after a
//! durability barrier. The difference is invisible to a reachability
//! analysis and fatal to crash recovery. This pass proves the order:
//! for every function it builds a **sequenced effect trace** — the
//! ordered list of journal-append / state-mutate / fsync-barrier /
//! frame / verify / apply events its body performs, with calls to
//! non-configured workspace functions inlined (memoized, cycle-cut,
//! and stopping at std-shadowed method names exactly like the effects
//! propagation) — and checks the write-ahead protocol against it.
//!
//! Codes (all `Error` severity — CI gates the workspace at zero):
//! - `O001`: a durable-surface method whose trace mutates state
//!   *before* its first journal append — the write-behind bug: a crash
//!   between the apply and the append loses a write the in-memory
//!   database already served.
//! - `O002`: a durable-surface method whose trace journals but never
//!   reaches a durability barrier after its last append — the ack
//!   returns before the bytes are on disk.
//! - `O003`: a configured journal appender whose own trace never
//!   frames a record — without length+checksum framing, recovery
//!   cannot tell a torn tail from corruption.
//! - `O004`: a durability barrier (direct `sync_all`/`sync_data`, or a
//!   call to a configured barrier function) inside a per-operation
//!   loop — each iteration pays the fsync that group commit exists to
//!   batch. Deliberately *not* transitive: only the function that owns
//!   the loop is charged.
//! - `O005`: a configured recovery path whose trace applies a frame
//!   before any checksum verification — corrupt bytes would replay
//!   into the live state.
//! - `O006`: an `mp-lint: allow(O...)` with no justification.
//! - `O007`: config drift — the [`OrderConfig`] names a function or
//!   durable type the workspace no longer defines, or `DESIGN.md`
//!   fails to document one of the `O0xx` codes.
//!
//! Allows follow the one policy (DESIGN §7 "Allow policy").
//!
//! Known granularity limits, by design: events are ordered by source
//! line (calls inlined at their call line keep their callee's internal
//! order, so a `commit()` helper that appends-then-barriers stays
//! correctly sequenced at its call site), but two events on *one* line
//! order by call-edge resolution, not column; and a closure argument's
//! events surface at the closure body's lines, not at the call that
//! runs it. The workspace write paths keep append, apply, and barrier
//! on distinct lines so the trace is faithful where it matters.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::core::{
    design_coverage, matches_any, resolve, shadowed, unjustified_allows, Drift, FnRef, Workspace,
};
use crate::diagnostics::Diagnostic;
use crate::hotpath::loop_lines;

const DRIFT: Drift = Drift {
    code: "O007",
    pass: "order",
    config: "OrderConfig",
};

/// Every code this pass can emit; `DESIGN.md` must document each one.
pub const ORDER_CODES: &[&str] = &["O001", "O002", "O003", "O004", "O005", "O006", "O007"];

/// Direct durability-barrier markers, matched against *masked* source
/// lines. Narrower than the effects `IO_PATTERNS` on purpose: a
/// buffered `flush()` is not a barrier, only an fsync is.
const BARRIER_PATTERNS: &[&str] = &[concat!(".sync_", "all("), concat!(".sync_", "data(")];

/// Events per trace cap: a runaway inline (deep helper chains) stops
/// here rather than blowing up the scan. Workspace traces are tiny.
const EVENT_CAP: usize = 512;

/// Configuration: which functions emit which trace events, and where
/// the write-ahead protocol applies.
#[derive(Debug, Clone)]
pub struct OrderConfig {
    /// Journal-append primitives (each call is a `journal` event; each
    /// must frame its records — `O003`).
    pub journal_fns: Vec<FnRef>,
    /// Record-framing primitives (length + checksum).
    pub frame_fns: Vec<FnRef>,
    /// Durability-barrier primitives (group-commit fsync).
    pub barrier_fns: Vec<FnRef>,
    /// Frame-verification primitives (checksum gate on the read side).
    pub verify_fns: Vec<FnRef>,
    /// Replay-application primitives (a decoded op mutating the
    /// recovered database).
    pub apply_fns: Vec<FnRef>,
    /// Recovery entry points: their traces must verify before they
    /// apply (`O005`).
    pub recovery_fns: Vec<FnRef>,
    /// Collection mutation primitives (each call is a `mutate` event).
    pub mutation_fns: Vec<FnRef>,
    /// `impl` types forming the durable write surface: their methods
    /// must append before mutating (`O001`) and barrier after their
    /// last append (`O002`).
    pub durable_surface: Vec<String>,
}

impl OrderConfig {
    /// The Materials Project workspace defaults: `Persister::stage`
    /// (encode and frame one op into the commit's buffer) and
    /// `Persister::write_staged` (hand the buffer to the OS, and frame a
    /// new generation's header on the way) are the journal seam,
    /// `frame_record`/`decode_frame` the checksum framing gate,
    /// `GroupCommit::sync_to` the group-commit barrier — with the two
    /// checkpoint steps that fsync, `Persister::seal` and
    /// `Persister::publish`, so O004 keeps them out of per-operation
    /// loops too — `JournalOp::apply` (best-effort, WAL replay),
    /// `JournalOp::try_apply` (strict, a snapshot's index records) and
    /// `Collection::bulk_build` (a snapshot's run of documents, and an
    /// `insert_many` into an empty collection) the
    /// replay application, `Persister::recover_with_report` the recovery
    /// entry point (it replays sealed and active generations through one
    /// verify-then-apply helper), `load_snapshot`, the snapshot's own
    /// verify-then-apply loop, checked on its own, and
    /// `ReplicaSet::replicate`, which replays the oplog's frames into
    /// the secondaries,
    /// `raw_apply` (the one function that write-locks store state)
    /// mutates, and `Shared` — whose `commit` is the one function that
    /// sequences an append and an apply — is the write-ahead surface.
    pub fn materials_project_defaults() -> Self {
        OrderConfig {
            journal_fns: FnRef::list(&["Persister::stage", "Persister::write_staged"]),
            frame_fns: FnRef::list(&["frame_record"]),
            barrier_fns: FnRef::list(&[
                "GroupCommit::sync_to",
                "Persister::seal",
                "Persister::publish",
            ]),
            verify_fns: FnRef::list(&["decode_frame"]),
            apply_fns: FnRef::list(&[
                "JournalOp::apply",
                "JournalOp::try_apply",
                "Collection::bulk_build",
            ]),
            recovery_fns: FnRef::list(&[
                "Persister::recover_with_report",
                "load_snapshot",
                "ReplicaSet::replicate",
            ]),
            mutation_fns: FnRef::list(&["raw_apply"]),
            durable_surface: vec!["Shared".to_string()],
        }
    }
}

/// One event in a sequenced trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Journal,
    Mutate,
    Barrier,
    Frame,
    Verify,
    Apply,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Journal => "journal",
            Kind::Mutate => "mutate",
            Kind::Barrier => "barrier",
            Kind::Frame => "frame",
            Kind::Verify => "verify",
            Kind::Apply => "apply",
        }
    }
}

#[derive(Debug, Clone)]
struct Event {
    kind: Kind,
    /// 1-based line in the *root* function's file where the event
    /// surfaces (the call line, for inlined events).
    line: usize,
    /// Inline provenance: the chain of callee indices the event came
    /// through (empty for a direct event).
    via: Vec<usize>,
}

/// One sequenced-trace event, for export into the annotated call graph
/// (`mp-lint callgraph --json`).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// `journal` / `mutate` / `barrier` / `frame` / `verify` / `apply`.
    pub kind: &'static str,
    /// 1-based line in the owning function's file.
    pub line: usize,
    /// Qualified names of the call chain the event was inlined through.
    pub via: Vec<String>,
}

/// The per-kind masks the trace builder classifies call edges with.
struct Masks {
    journal: Vec<bool>,
    frame: Vec<bool>,
    barrier: Vec<bool>,
    verify: Vec<bool>,
    apply: Vec<bool>,
    mutation: Vec<bool>,
    recovery: Vec<bool>,
}

impl Masks {
    /// The leaf event a call to function `v` contributes, if any. A
    /// configured function is a leaf: its internals are checked by its
    /// own trace, not re-inlined at every call site.
    fn classify(&self, v: usize) -> Option<Kind> {
        if self.journal[v] {
            Some(Kind::Journal)
        } else if self.frame[v] {
            Some(Kind::Frame)
        } else if self.barrier[v] {
            Some(Kind::Barrier)
        } else if self.verify[v] {
            Some(Kind::Verify)
        } else if self.apply[v] {
            Some(Kind::Apply)
        } else if self.mutation[v] {
            Some(Kind::Mutate)
        } else {
            None
        }
    }
}

fn resolve_masks(graph: &CallGraph, config: &OrderConfig, diags: &mut Vec<Diagnostic>) -> Masks {
    let mut mask = |refs: &[FnRef], kind: &str| resolve(graph, refs, kind, &DRIFT, diags);
    Masks {
        journal: mask(&config.journal_fns, "journal appender"),
        frame: mask(&config.frame_fns, "record framer"),
        barrier: mask(&config.barrier_fns, "durability barrier"),
        verify: mask(&config.verify_fns, "frame verifier"),
        apply: mask(&config.apply_fns, "replay application"),
        recovery: mask(&config.recovery_fns, "recovery entry point"),
        mutation: mask(&config.mutation_fns, "mutation primitive"),
    }
}

/// The sequenced trace of function `i`: its body lines in order, each
/// contributing the leaf events of configured callees, the inlined
/// traces of non-configured callees (all surfacing at the call line,
/// preserving the callee's internal order), and direct barrier
/// patterns. Memoized; cycles contribute nothing on re-entry.
fn trace_of(
    i: usize,
    ws: &Workspace,
    masks: &Masks,
    memo: &mut Vec<Option<Vec<Event>>>,
    visiting: &mut Vec<bool>,
) -> Vec<Event> {
    if let Some(t) = &memo[i] {
        return t.clone();
    }
    if visiting[i] {
        return Vec::new();
    }
    visiting[i] = true;
    let calls_at = ws.calls_by_line(i);
    let mut events: Vec<Event> = Vec::new();
    for (lineno, seg) in ws.body_lines(i) {
        if events.len() >= EVENT_CAP {
            break;
        }
        if let Some(vs) = calls_at.get(&lineno) {
            for &v in vs {
                match masks.classify(v) {
                    Some(kind) => events.push(Event {
                        kind,
                        line: lineno,
                        via: Vec::new(),
                    }),
                    None if !shadowed(&ws.graph, v) => {
                        let sub = trace_of(v, ws, masks, memo, visiting);
                        for e in sub {
                            if events.len() >= EVENT_CAP {
                                break;
                            }
                            let mut via = vec![v];
                            via.extend(e.via.iter().copied());
                            events.push(Event {
                                kind: e.kind,
                                line: lineno,
                                via,
                            });
                        }
                    }
                    None => {}
                }
            }
        }
        if matches_any(seg, BARRIER_PATTERNS) {
            events.push(Event {
                kind: Kind::Barrier,
                line: lineno,
                via: Vec::new(),
            });
        }
    }
    visiting[i] = false;
    memo[i] = Some(events.clone());
    events
}

fn build_traces(ws: &Workspace, masks: &Masks) -> Vec<Vec<Event>> {
    let n = ws.graph.fns.len();
    let mut memo: Vec<Option<Vec<Event>>> = vec![None; n];
    let mut visiting = vec![false; n];
    (0..n)
        .map(|i| trace_of(i, ws, masks, &mut memo, &mut visiting))
        .collect()
}

/// ` (via \`a::b\` → \`c::d\`)` provenance suffix for diagnostics, or
/// nothing for a direct event. Chains longer than three hops elide the
/// middle.
fn describe_via(graph: &CallGraph, via: &[usize]) -> String {
    if via.is_empty() {
        return String::new();
    }
    let names: Vec<String> = if via.len() <= 3 {
        via.iter().map(|&v| graph.fns[v].qualified()).collect()
    } else {
        vec![
            graph.fns[via[0]].qualified(),
            "…".to_string(),
            graph.fns[via[via.len() - 1]].qualified(),
        ]
    };
    format!(
        " (via `{}`)",
        names
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join("` → `")
    )
}

/// Sequenced traces for every function, aligned with `graph.fns`, with
/// provenance rendered as qualified names. This is what
/// `mp-lint callgraph --json` exports per function.
pub fn order_traces(ws: &Workspace, config: &OrderConfig) -> Vec<Vec<TraceEvent>> {
    let graph = &ws.graph;
    let masks = resolve_masks(graph, config, &mut Vec::new());
    build_traces(ws, &masks)
        .into_iter()
        .map(|trace| {
            trace
                .into_iter()
                .map(|e| TraceEvent {
                    kind: e.kind.name(),
                    line: e.line,
                    via: e.via.iter().map(|&v| graph.fns[v].qualified()).collect(),
                })
                .collect()
        })
        .collect()
}

/// Edge → ordering-role map for the DOT rendering: every call edge
/// whose target is a configured ordering primitive is colored by the
/// event kind it contributes (`journal` green, `barrier` purple,
/// `mutate` gold, `frame`/`verify` blue, `apply` orange).
pub fn order_edge_roles(
    graph: &CallGraph,
    config: &OrderConfig,
) -> BTreeMap<(usize, usize), &'static str> {
    let masks = resolve_masks(graph, config, &mut Vec::new());
    let mut roles = BTreeMap::new();
    for e in &graph.edges {
        if let Some(kind) = masks.classify(e.to) {
            roles.insert((e.from, e.to), kind.name());
        }
    }
    roles
}

/// Run the ordering pass over the workspace; its `DESIGN.md`, when it
/// has one, takes part in the O007 drift check.
pub fn analyze_order(ws: &Workspace, config: &OrderConfig) -> Vec<Diagnostic> {
    let graph = &ws.graph;
    let mut diags = Vec::new();
    let masks = resolve_masks(graph, config, &mut diags);
    let traces = build_traces(ws, &masks);
    let n = graph.fns.len();

    // O006: a justification-free O-allow is wrong anywhere.
    diags.extend(unjustified_allows(ws, "O006"));

    // O007 (surface half): every configured durable type must exist.
    for t in &config.durable_surface {
        if !graph.fns.iter().any(|f| f.impl_type.as_deref() == Some(t)) {
            diags.push(
                Diagnostic::error(
                    "O007",
                    t.clone(),
                    format!(
                        "order config names durable surface `{t}` but the workspace defines no \
                         methods on such a type — the write-ahead checks would silently skip it"
                    ),
                )
                .with_suggestion(
                    "update OrderConfig (or materials_project_defaults) to the renamed durable \
                     type",
                ),
            );
        }
    }

    // O001/O002: the write-ahead protocol on every durable-surface
    // method whose trace journals.
    for (i, trace) in traces.iter().enumerate().take(n) {
        let f = &graph.fns[i];
        let on_surface = f
            .impl_type
            .as_deref()
            .is_some_and(|t| config.durable_surface.iter().any(|s| s == t));
        if !on_surface {
            continue;
        }
        let first_journal = trace.iter().position(|e| e.kind == Kind::Journal);
        let first_mutate = trace.iter().position(|e| e.kind == Kind::Mutate);
        if let (Some(j), Some(m)) = (first_journal, first_mutate) {
            if m < j {
                let ev = &trace[m];
                if !ws.allowed("O001", i, ev.line) {
                    diags.push(
                        Diagnostic::error(
                            "O001",
                            format!("{}:{}", f.file, ev.line),
                            format!(
                                "durable-surface method `{}` mutates state{} before its first \
                                 journal append at line {} — write-behind ordering: a crash \
                                 between the apply and the append loses a write the in-memory \
                                 database already served",
                                f.qualified(),
                                describe_via(graph, &ev.via),
                                trace[j].line
                            ),
                        )
                        .with_suggestion(
                            "append the JournalOp first (write-ahead), then apply in memory \
                             under the same guard so journal order is apply order",
                        ),
                    );
                }
            }
        }
        if let Some(j) = first_journal {
            let last_journal = trace
                .iter()
                .rposition(|e| e.kind == Kind::Journal)
                .unwrap_or(j);
            let ev = &trace[last_journal];
            let barriered = trace[last_journal + 1..]
                .iter()
                .any(|e| e.kind == Kind::Barrier);
            if !barriered && !ws.allowed("O002", i, ev.line) {
                diags.push(
                    Diagnostic::error(
                        "O002",
                        format!("{}:{}", f.file, ev.line),
                        format!(
                            "durable-surface method `{}` returns after its journal append{} \
                             without a durability barrier — the caller's Ok arrives before the \
                             bytes reach disk, so a crash loses an acknowledged write",
                            f.qualified(),
                            describe_via(graph, &ev.via),
                        ),
                    )
                    .with_suggestion(
                        "issue the group-commit barrier (sync the WAL to the appended LSN) \
                         after releasing the journal guard and before returning Ok",
                    ),
                );
            }
        }
    }

    // O003: every configured journal appender must frame its records.
    for i in (0..n).filter(|&i| masks.journal[i]) {
        let f = &graph.fns[i];
        let frames = traces[i].iter().any(|e| e.kind == Kind::Frame);
        if !frames && !ws.allowed("O003", i, f.line) {
            diags.push(
                Diagnostic::error(
                    "O003",
                    format!("{}:{}", f.file, f.line),
                    format!(
                        "journal appender `{}` writes records without checksum framing — \
                         recovery cannot distinguish a torn tail (safe to skip) from \
                         mid-file corruption (must stop replay)",
                        f.qualified()
                    ),
                )
                .with_suggestion(
                    "frame every record (length prefix + CRC32) through the configured frame \
                     helper before it hits the file",
                ),
            );
        }
    }

    // O005: every configured recovery path must verify before it
    // applies.
    for i in (0..n).filter(|&i| masks.recovery[i]) {
        let f = &graph.fns[i];
        let trace = &traces[i];
        let first_apply = trace.iter().position(|e| e.kind == Kind::Apply);
        let first_verify = trace.iter().position(|e| e.kind == Kind::Verify);
        let bad = match (first_apply, first_verify) {
            (Some(a), Some(v)) => a < v,
            (Some(_), None) => true,
            _ => false,
        };
        if bad {
            let ev = &trace[first_apply.unwrap_or(0)];
            if !ws.allowed("O005", i, ev.line) {
                diags.push(
                    Diagnostic::error(
                        "O005",
                        format!("{}:{}", f.file, ev.line),
                        format!(
                            "recovery path `{}` applies a frame{} before any checksum \
                             verification — corrupt bytes would replay into the live state",
                            f.qualified(),
                            describe_via(graph, &ev.via),
                        ),
                    )
                    .with_suggestion(
                        "decode and checksum-verify each frame (length + CRC32) before \
                         applying its op to the recovered database",
                    ),
                );
            }
        }
    }

    // O004: a durability barrier inside a per-operation loop. Direct
    // patterns and direct calls to configured barrier fns only — the
    // function that owns the loop is charged, nothing transitive.
    for (i, f) in graph.fns.iter().enumerate() {
        let hot = loop_lines(ws, i);
        if hot.is_empty() {
            continue;
        }
        let calls_at = ws.calls_by_line(i);
        for (lineno, seg) in ws.body_lines(i) {
            if !hot.contains(&lineno) {
                continue;
            }
            let direct = matches_any(seg, BARRIER_PATTERNS);
            let via_call = calls_at
                .get(&lineno)
                .is_some_and(|vs| vs.iter().any(|&v| masks.barrier[v]));
            if (direct || via_call) && !ws.allowed("O004", i, lineno) {
                diags.push(
                    Diagnostic::error(
                        "O004",
                        format!("{}:{lineno}", f.file),
                        format!(
                            "durability barrier inside a per-operation loop in `{}` — every \
                             iteration pays a full fsync that group commit exists to batch",
                            f.qualified()
                        ),
                    )
                    .with_suggestion(
                        "hoist the barrier out of the loop: append every frame first, then \
                         issue one barrier for the batch's final LSN",
                    ),
                );
            }
        }
    }

    // O007 (second half): DESIGN.md must document every code.
    diags.extend(design_coverage(ws, ORDER_CODES, "ordering", &DRIFT));

    diags
}

/// The pass-table entry: the pass with the Materials Project defaults.
pub fn pass(ws: &Workspace) -> Vec<Diagnostic> {
    analyze_order(ws, &OrderConfig::materials_project_defaults())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{workspace_of, Scope, ALLOW_MARKS};
    use std::path::Path;

    fn cfg() -> OrderConfig {
        OrderConfig {
            journal_fns: FnRef::list(&["Wal::append"]),
            frame_fns: FnRef::list(&["frame"]),
            barrier_fns: FnRef::list(&["Gc::wait_durable"]),
            verify_fns: FnRef::list(&["Rec::check"]),
            apply_fns: FnRef::list(&["Rec::apply_frame"]),
            recovery_fns: FnRef::list(&["Rec::replay"]),
            mutation_fns: FnRef::list(&["Coll::insert_doc"]),
            durable_surface: vec!["Dur".to_string()],
        }
    }

    /// A WAL store with the protocol done right: frame → append →
    /// apply → barrier, recovery verifies before it applies.
    const WAL_STORE: &str = concat!(
        "pub struct Wal;\nimpl Wal {\n",
        "  pub fn append(&mut self, op: &Op) -> u64 {\n",
        "    let b = frame(op);\n",
        "    self.sink(b)\n",
        "  }\n",
        "}\n",
        "pub fn frame(op: &Op) -> Vec<u8> { Vec::new() }\n",
        "pub struct Gc;\nimpl Gc {\n",
        "  pub fn wait_durable(&self, lsn: u64) {}\n",
        "}\n",
        "pub struct Coll;\nimpl Coll {\n",
        "  pub fn insert_doc(&self, d: Value) {}\n",
        "}\n",
        "pub struct Rec;\nimpl Rec {\n",
        "  pub fn check(&self, b: &[u8]) -> Frame { Frame }\n",
        "  pub fn apply_frame(&self, f: Frame) {}\n",
        "  pub fn replay(&self) {\n",
        "    let f = self.check(b);\n",
        "    self.apply_frame(f);\n",
        "  }\n",
        "}\n",
        "pub struct Dur;\nimpl Dur {\n",
        "  pub fn store_doc(&self, d: Value) {\n",
        "    let lsn = self.w.append(&op(d));\n",
        "    self.c.insert_doc(d);\n",
        "    self.g.wait_durable(lsn);\n",
        "  }\n",
        "}\n"
    );

    #[test]
    fn clean_wal_store_has_no_findings() {
        let ws = workspace_of(&[("crates/a/src/lib.rs", WAL_STORE)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn o001_mutation_before_journal_append() {
        let src = WAL_STORE.replace(
            concat!(
                "    let lsn = self.w.append(&op(d));\n",
                "    self.c.insert_doc(d);\n"
            ),
            concat!(
                "    self.c.insert_doc(d);\n",
                "    let lsn = self.w.append(&op(d));\n"
            ),
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "O001");
        assert!(diags[0].message.contains("a::Dur::store_doc"));
    }

    #[test]
    fn o002_journal_without_barrier() {
        let src = WAL_STORE.replace("    self.g.wait_durable(lsn);\n", "");
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "O002");
        assert!(diags[0].message.contains("durability barrier"));
    }

    #[test]
    fn o002_sees_a_direct_fsync_as_a_barrier() {
        let src = WAL_STORE.replace(
            "    self.g.wait_durable(lsn);\n",
            concat!("    let _ = self.f.sync_", "data();\n"),
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn o003_journal_appender_without_framing() {
        let src = WAL_STORE.replace(
            "    let b = frame(op);\n    self.sink(b)\n",
            "    self.sink(op)\n",
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "O003");
        assert!(diags[0].message.contains("a::Wal::append"));
    }

    #[test]
    fn o004_fsync_inside_a_per_op_loop() {
        let extra = concat!(
            "impl Dur {\n",
            "  pub fn store_all(&self, ds: Vec<Value>) {\n",
            "    for d in ds {\n",
            "      let lsn = self.w.append(&op(d));\n",
            "      self.c.insert_doc(d);\n",
            "      self.g.wait_durable(lsn);\n",
            "    }\n",
            "  }\n",
            "}\n"
        );
        let src = format!("{WAL_STORE}{extra}");
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "O004");
        assert!(diags[0].message.contains("a::Dur::store_all"));
        // Hoisting the barrier out of the loop fixes it.
        let fixed = src.replace(
            concat!("      self.g.wait_durable(lsn);\n", "    }\n"),
            concat!("    }\n", "    self.g.wait_durable(lsn);\n"),
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", &fixed)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn o005_recovery_applies_before_verifying() {
        let src = WAL_STORE.replace(
            concat!("    let f = self.check(b);\n", "    self.apply_frame(f);\n"),
            concat!("    self.apply_frame(f);\n", "    let f = self.check(b);\n"),
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "O005");
        assert!(diags[0].message.contains("a::Rec::replay"));
    }

    #[test]
    fn o006_unjustified_allow() {
        let src = format!("// {}O001)\n{WAL_STORE}", ALLOW_MARKS[0]);
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "O006");
    }

    #[test]
    fn o007_config_drift_and_design_coverage() {
        let mut ws = workspace_of(&[("crates/a/src/lib.rs", WAL_STORE)], &[]);
        let mut config = cfg();
        config.barrier_fns = vec![FnRef::parse("Gc::renamed_barrier")];
        let diags = analyze_order(&ws, &config);
        // The dangling ref plus the O002s it causes everywhere a
        // barrier used to resolve.
        assert!(diags.iter().any(|d| d.code == "O007"), "{diags:?}");
        // DESIGN.md must name every code.
        let design = "O001 O002 O003 O004 O005 O006"; // O007 missing
        ws.design = Some(design.to_string());
        let diags = analyze_order(&ws, &cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "O007");
        assert!(diags[0].path == "DESIGN.md");
    }

    #[test]
    fn justified_allow_silences_o001() {
        let src = WAL_STORE.replace(
            concat!(
                "    let lsn = self.w.append(&op(d));\n",
                "    self.c.insert_doc(d);\n"
            ),
            &format!(
                concat!(
                    "    // {}O001) — bootstrap path rebuilds the journal from live state\n",
                    "    self.c.insert_doc(d);\n",
                    "    let lsn = self.w.append(&op(d));\n"
                ),
                ALLOW_MARKS[0]
            ),
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn inlined_commit_helper_keeps_its_internal_order() {
        // The helper appends then barriers; its events surface at the
        // call line in that order, so a mutate on a later line is
        // still write-ahead-clean (append precedes it in sequence).
        let extra = concat!(
            "impl Dur {\n",
            "  fn commit(&self, op: Op) -> u64 {\n",
            "    let lsn = self.w.append(&op);\n",
            "    self.g.wait_durable(lsn);\n",
            "    lsn\n",
            "  }\n",
            "  pub fn store_fast(&self, d: Value) {\n",
            "    self.commit(op(d));\n",
            "    self.c.insert_doc(d);\n",
            "  }\n",
            "}\n"
        );
        let src = format!("{WAL_STORE}{extra}");
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
        // And the trace export shows the provenance.
        let traces = order_traces(&ws, &cfg());
        let idx = ws
            .graph
            .fns
            .iter()
            .position(|f| f.qualified() == "a::Dur::store_fast")
            .expect("store_fast summarized");
        let kinds: Vec<&str> = traces[idx].iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["journal", "barrier", "mutate"], "{:?}", traces[idx]);
        assert_eq!(traces[idx][0].via, vec!["a::Dur::commit".to_string()]);
    }

    #[test]
    fn o001_catches_mutation_before_an_inlined_commit() {
        let extra = concat!(
            "impl Dur {\n",
            "  fn commit(&self, op: Op) -> u64 {\n",
            "    let lsn = self.w.append(&op);\n",
            "    self.g.wait_durable(lsn);\n",
            "    lsn\n",
            "  }\n",
            "  pub fn store_late(&self, d: Value) {\n",
            "    self.c.insert_doc(d);\n",
            "    self.commit(op(d));\n",
            "  }\n",
            "}\n"
        );
        let src = format!("{WAL_STORE}{extra}");
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "O001");
        assert!(diags[0].message.contains("a::Dur::store_late"));
    }

    #[test]
    fn order_edge_roles_color_configured_targets() {
        let ws = workspace_of(&[("crates/a/src/lib.rs", WAL_STORE)], &[]);
        let roles = order_edge_roles(&ws.graph, &cfg());
        assert!(roles.values().any(|&r| r == "journal"), "{roles:?}");
        assert!(roles.values().any(|&r| r == "barrier"), "{roles:?}");
        assert!(roles.values().any(|&r| r == "mutate"), "{roles:?}");
    }

    #[test]
    fn workspace_is_order_clean() {
        // The acceptance gate: zero O0xx findings on the whole
        // workspace with the Materials Project defaults — the durable
        // store is write-ahead, framed, group-committed, and recovery
        // verifies before it applies.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = Workspace::scan(&root, &[&Scope::GRAPH]).expect("scan workspace");
        let diags = pass(&ws);
        assert!(
            diags.is_empty(),
            "workspace ordering findings:\n{}",
            crate::diagnostics::render(&diags)
        );
    }
}
