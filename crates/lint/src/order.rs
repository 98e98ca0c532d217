//! Pass 9: no fsync per operation (`O004`).
//!
//! Group commit exists so that one fsync covers every operation queued
//! behind it. A durability barrier inside a loop over operations pays
//! that fsync once per iteration, and nothing but a source scan sees it:
//! the types of the write path (`mp_docstore::journal`) say *that* a
//! commit waits for the barrier, not how often.
//!
//! Codes (all `Error` severity — CI gates the workspace at zero):
//! - `O004`: a durability barrier (direct `sync_all`/`sync_data`, or a
//!   call to a configured barrier function) inside a per-operation
//!   loop — each iteration pays the fsync that group commit exists to
//!   batch. Deliberately *not* transitive: only the function that owns
//!   the loop is charged.
//! - `O006`: an `mp-lint: allow(O...)` with no justification.
//! - `O007`: config drift — the [`OrderConfig`] names a function the
//!   workspace no longer defines, or `DESIGN.md` fails to document one
//!   of the `O0xx` codes.
//!
//! `O001`–`O003` and `O005` are retired: the write-ahead order they
//! proved over sequenced call-graph traces is now carried by the types
//! of `mp-docstore` (DESIGN §15 has the mutant each type refuses).
//!
//! Allows follow the one policy (DESIGN §7 "Allow policy").

use crate::core::{
    design_coverage, matches_any, resolve, unjustified_allows, Drift, FnRef, Workspace,
};
use crate::diagnostics::Diagnostic;
use crate::hotpath::loop_lines;

const DRIFT: Drift = Drift {
    code: "O007",
    pass: "order",
    config: "OrderConfig",
};

/// Every code this pass can emit; `DESIGN.md` must document each one.
pub const ORDER_CODES: &[&str] = &["O004", "O006", "O007"];

/// Direct durability-barrier markers, matched against *masked* source
/// lines. A buffered `flush()` is not a barrier, only an fsync is.
const BARRIER_PATTERNS: &[&str] = &[concat!(".sync_", "all("), concat!(".sync_", "data(")];

/// Configuration: which functions are durability barriers.
#[derive(Debug, Clone)]
pub struct OrderConfig {
    /// Durability-barrier primitives: a call to one inside a
    /// per-operation loop is an `O004`.
    pub barrier_fns: Vec<FnRef>,
}

impl OrderConfig {
    /// The Materials Project workspace defaults: `GroupCommit::sync_to`
    /// (the group-commit barrier) and the two checkpoint steps that
    /// fsync, `Persister::seal` and `Persister::publish`.
    pub fn materials_project_defaults() -> Self {
        OrderConfig {
            barrier_fns: FnRef::list(&[
                "GroupCommit::sync_to",
                "Persister::seal",
                "Persister::publish",
            ]),
        }
    }
}

/// Run the pass over the workspace; its `DESIGN.md`, when it has one,
/// takes part in the O007 drift check.
pub fn analyze_order(ws: &Workspace, config: &OrderConfig) -> Vec<Diagnostic> {
    let graph = &ws.graph;
    let mut diags = Vec::new();
    let barrier = resolve(
        graph,
        &config.barrier_fns,
        "durability barrier",
        &DRIFT,
        &mut diags,
    );

    // O006: a justification-free O-allow is wrong anywhere.
    diags.extend(unjustified_allows(ws, "O006"));

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
                .is_some_and(|vs| vs.iter().any(|&v| barrier[v]));
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
            barrier_fns: FnRef::list(&["Gc::wait_durable"]),
        }
    }

    /// A store that appends, applies and waits for durability once per
    /// operation of a batch.
    const PER_OP_STORE: &str = concat!(
        "pub struct Gc;\nimpl Gc {\n",
        "  pub fn wait_durable(&self, lsn: u64) {}\n",
        "}\n",
        "pub struct Dur;\nimpl Dur {\n",
        "  pub fn store_all(&self, ds: Vec<Value>) {\n",
        "    for d in ds {\n",
        "      let lsn = self.w.append(&op(d));\n",
        "      self.c.insert_doc(d);\n",
        "      self.g.wait_durable(lsn);\n",
        "    }\n",
        "  }\n",
        "}\n"
    );

    /// The same batch with the barrier hoisted out of the loop.
    fn hoisted() -> String {
        PER_OP_STORE.replace(
            concat!("      self.g.wait_durable(lsn);\n", "    }\n"),
            concat!("    }\n", "    self.g.wait_durable(lsn);\n"),
        )
    }

    #[test]
    fn o004_fsync_inside_a_per_op_loop() {
        let ws = workspace_of(&[("crates/a/src/lib.rs", PER_OP_STORE)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "O004");
        assert!(diags[0].message.contains("a::Dur::store_all"));
        // Hoisting the barrier out of the loop fixes it.
        let ws = workspace_of(&[("crates/a/src/lib.rs", &hoisted())], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
        // A direct fsync in the loop is a barrier too.
        let direct = hoisted().replace(
            "      self.c.insert_doc(d);\n",
            concat!("      let _ = self.f.sync_", "data();\n"),
        );
        let ws = workspace_of(&[("crates/a/src/lib.rs", &direct)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "O004");
    }

    #[test]
    fn o006_unjustified_allow() {
        let src = format!("// {}O004)\n{}", ALLOW_MARKS[0], hoisted());
        let ws = workspace_of(&[("crates/a/src/lib.rs", &src)], &[]);
        let diags = analyze_order(&ws, &cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "O006");
    }

    #[test]
    fn o007_config_drift_and_design_coverage() {
        let mut ws = workspace_of(&[("crates/a/src/lib.rs", &hoisted())], &[]);
        let config = OrderConfig {
            barrier_fns: vec![FnRef::parse("Gc::renamed_barrier")],
        };
        let diags = analyze_order(&ws, &config);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "O007");
        assert!(diags[0].message.contains("Gc::renamed_barrier"));
        // DESIGN.md must name every code.
        ws.design = Some("O004 O006".to_string()); // O007 missing
        let diags = analyze_order(&ws, &cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "O007");
        assert!(diags[0].path == "DESIGN.md");
    }

    #[test]
    fn workspace_is_order_clean() {
        // The acceptance gate: zero O0xx findings on the whole
        // workspace with the Materials Project defaults — no fsync per
        // operation, and DESIGN.md documents the codes.
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
