//! Workspace call graph built from per-function summaries.
//!
//! Nodes are the functions [`crate::summary::summarize_source`] found;
//! edges come from resolving each [`CallSite`](crate::summary::CallSite)
//! against the workspace's definitions. Resolution is deliberately
//! conservative-but-filtered:
//!
//! * `Type::method` path calls resolve to the summary with that exact
//!   `(impl_type, name)` pair; `Self::method` resolves via the caller's
//!   own impl type.
//! * `recv.method(...)` calls resolve by method name workspace-wide,
//!   filtered by argument count against each candidate's non-`self`
//!   parameter count (so the zero-arg `Iterator::count()` never links
//!   to `Collection::count(&Filter)`), then by crate dependency: an
//!   edge may only leave crate A for crate B when A's `Cargo.toml`
//!   declares a dependency on B.
//! * Plain calls prefer a definition in the same file, then the same
//!   crate, then any depended-upon crate.
//!
//! One graph, built once per [`Workspace`](crate::core::Workspace),
//! feeds every graph pass and `mp-lint callgraph`.

use crate::summary::{Callee, FnSummary};
use std::collections::{BTreeMap, BTreeSet};

/// One resolved edge: caller index → callee index, at a source line.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Index into [`CallGraph::fns`].
    pub from: usize,
    /// Index into [`CallGraph::fns`].
    pub to: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: usize,
}

/// The workspace call graph.
pub struct CallGraph {
    /// All non-test function summaries, in scan order.
    pub fns: Vec<FnSummary>,
    /// Resolved call edges.
    pub edges: Vec<Edge>,
    /// Adjacency: caller index → (callee index, call line).
    pub out: Vec<Vec<(usize, usize)>>,
    /// Reverse adjacency: callee index → (caller index, call line).
    pub rin: Vec<Vec<(usize, usize)>>,
}

impl CallGraph {
    /// Build the graph from summaries plus the per-crate dependency
    /// relation (`deps[crate]` = crates it may call into; every crate
    /// implicitly depends on itself).
    pub fn build(fns: Vec<FnSummary>, deps: &BTreeMap<String, BTreeSet<String>>) -> Self {
        // Lookup tables.
        let mut by_type_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_method: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if let Some(t) = &f.impl_type {
                by_type_method
                    .entry((t.as_str(), f.name.as_str()))
                    .or_default()
                    .push(i);
                by_method.entry(f.name.as_str()).or_default().push(i);
            } else {
                by_free.entry(f.name.as_str()).or_default().push(i);
            }
        }

        let may_call = |from: &FnSummary, to: &FnSummary| -> bool {
            from.crate_name == to.crate_name
                || deps
                    .get(&from.crate_name)
                    .is_some_and(|d| d.contains(&to.crate_name))
        };
        let arity_ok = |args: Option<usize>, callee: &FnSummary| -> bool {
            match (args, callee.params) {
                (Some(a), Some(p)) => a == p,
                _ => true,
            }
        };

        let mut edges = Vec::new();
        for (i, f) in fns.iter().enumerate() {
            for call in &f.calls {
                let mut targets: Vec<usize> = Vec::new();
                match &call.callee {
                    Callee::Path(ty, name) => {
                        let ty = if ty == "Self" {
                            match &f.impl_type {
                                Some(t) => t.as_str(),
                                None => continue,
                            }
                        } else {
                            ty.as_str()
                        };
                        if let Some(c) = by_type_method.get(&(ty, name.as_str())) {
                            targets.extend(c.iter().copied());
                        } else if let Some(c) = by_free.get(name.as_str()) {
                            // `module::func(...)` — the "type" was a module.
                            targets.extend(c.iter().copied());
                        }
                    }
                    Callee::Method(name) => {
                        if let Some(c) = by_method.get(name.as_str()) {
                            targets.extend(c.iter().copied());
                        }
                    }
                    Callee::Plain(name) => {
                        if let Some(c) = by_free.get(name.as_str()) {
                            // Prefer same-file, then same-crate definitions.
                            let same_file: Vec<usize> = c
                                .iter()
                                .copied()
                                .filter(|&j| fns[j].file == f.file)
                                .collect();
                            let same_crate: Vec<usize> = c
                                .iter()
                                .copied()
                                .filter(|&j| fns[j].crate_name == f.crate_name)
                                .collect();
                            if !same_file.is_empty() {
                                targets = same_file;
                            } else if !same_crate.is_empty() {
                                targets = same_crate;
                            } else {
                                targets.extend(c.iter().copied());
                            }
                        }
                    }
                }
                targets.retain(|&j| {
                    i != j
                        && may_call(f, &fns[j])
                        && (!matches!(call.callee, Callee::Method(_))
                            || arity_ok(call.args, &fns[j]))
                });
                // Same-crate preference for method calls: when a method
                // name + arity matches both a local type and one in a
                // dependency, the local definition shadows it (e.g.
                // `self.qe.count(..)` is `QueryEngine::count`, not
                // `ShardedCluster::count`). Cross-crate candidates stay
                // over-approximate when no local one matches.
                if matches!(call.callee, Callee::Method(_))
                    && targets.iter().any(|&j| fns[j].crate_name == f.crate_name)
                {
                    targets.retain(|&j| fns[j].crate_name == f.crate_name);
                }
                for j in targets {
                    edges.push(Edge {
                        from: i,
                        to: j,
                        line: call.line,
                    });
                }
            }
        }
        edges.sort_by_key(|e| (e.from, e.to, e.line));
        edges.dedup_by_key(|e| (e.from, e.to));

        let mut out = vec![Vec::new(); fns.len()];
        let mut rin = vec![Vec::new(); fns.len()];
        for e in &edges {
            out[e.from].push((e.to, e.line));
            rin[e.to].push((e.from, e.line));
        }
        CallGraph {
            fns,
            edges,
            out,
            rin,
        }
    }

    /// Index of the summary with this crate/type/name, if unique-ish
    /// (first match in scan order).
    pub fn find(&self, type_name: Option<&str>, name: &str) -> Option<usize> {
        self.fns
            .iter()
            .position(|f| f.name == name && f.impl_type.as_deref() == type_name)
    }

    /// GraphViz DOT rendering. `roles` maps function index → a fill
    /// color key: the flow roles `source` / `sanitizer` / `sink` /
    /// `panics`, or the effect roles `mutates` / `bumps` / `io` (see
    /// [`crate::effects::effect_roles`]).
    pub fn to_dot(&self, roles: &BTreeMap<usize, &str>) -> String {
        let mut s = String::from("digraph mpflow {\n  rankdir=LR;\n  node [shape=box, fontsize=10, style=filled, fillcolor=white];\n");
        for (i, f) in self.fns.iter().enumerate() {
            // Keep the DOT readable: only nodes that participate in an
            // edge or carry a role.
            let connected = !self.out[i].is_empty() || !self.rin[i].is_empty();
            if !connected && !roles.contains_key(&i) {
                continue;
            }
            let color = match roles.get(&i).copied() {
                Some("source") | Some("bumps") => "lightskyblue",
                Some("sanitizer") => "palegreen",
                Some("sink") | Some("mutates") => "gold",
                Some("panics") | Some("io") => "lightcoral",
                _ => "white",
            };
            let locks = if f.locks.is_empty() {
                String::new()
            } else {
                format!("\\n[{} lock site(s)]", f.locks.len())
            };
            s.push_str(&format!(
                "  n{} [label=\"{}{}\", fillcolor={}];\n",
                i,
                f.qualified().replace('"', "'"),
                locks,
                color
            ));
        }
        for e in &self.edges {
            s.push_str(&format!("  n{} -> n{};\n", e.from, e.to));
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::workspace_of;

    #[test]
    fn path_calls_resolve_to_type() {
        let g = workspace_of(
            &[(
                "crates/a/src/lib.rs",
                "pub struct T;\nimpl T {\n  pub fn go(&self) { T::helper(); }\n  fn helper() {}\n}\n",
            )],
            &[("a", &[])],
        )
        .graph;
        assert_eq!(g.edges.len(), 1, "{:?}", g.edges);
        assert_eq!(g.fns[g.edges[0].to].name, "helper");
    }

    #[test]
    fn self_calls_resolve_via_impl_type() {
        let g = workspace_of(
            &[(
                "crates/a/src/lib.rs",
                "pub struct T;\nimpl T {\n  pub fn go(&self) { Self::helper(); }\n  fn helper() {}\n}\n",
            )],
            &[("a", &[])],
        )
        .graph;
        assert_eq!(g.edges.len(), 1);
    }

    #[test]
    fn method_calls_filter_by_arity() {
        let g = workspace_of(
            &[
                (
                    "crates/a/src/lib.rs",
                    "pub fn go(c: &C) { let n = xs.iter().count(); c.count(f); }\n",
                ),
                (
                    "crates/b/src/lib.rs",
                    "pub struct C;\nimpl C {\n  pub fn count(&self, f: &F) -> usize { 0 }\n}\n",
                ),
            ],
            &[("a", &["b"]), ("b", &[])],
        )
        .graph;
        // Only the 1-arg c.count(f) resolves; .count() (0 args) is filtered.
        assert_eq!(g.edges.len(), 1, "{:?}", g.edges);
    }

    #[test]
    fn dependency_filter_blocks_unrelated_crates() {
        let g = workspace_of(
            &[
                ("crates/a/src/lib.rs", "pub fn go(r: &R) { r.run(x); }\n"),
                (
                    "crates/b/src/lib.rs",
                    "pub struct R;\nimpl R {\n  pub fn run(&self, x: u8) {}\n}\n",
                ),
            ],
            &[("a", &[]), ("b", &[])],
        )
        .graph;
        assert!(g.edges.is_empty(), "no dep a->b declared: {:?}", g.edges);
    }

    #[test]
    fn plain_calls_prefer_same_file() {
        let g = workspace_of(
            &[
                (
                    "crates/a/src/x.rs",
                    "pub fn go() { helper(); }\nfn helper() {}\n",
                ),
                ("crates/a/src/y.rs", "pub fn helper() {}\n"),
            ],
            &[("a", &[])],
        )
        .graph;
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.fns[g.edges[0].to].file, "crates/a/src/x.rs");
    }

    #[test]
    fn dot_renders_roles() {
        let g = workspace_of(
            &[(
                "crates/a/src/lib.rs",
                "pub fn go() { helper(); }\nfn helper() {}\n",
            )],
            &[("a", &[])],
        )
        .graph;
        let mut roles = BTreeMap::new();
        roles.insert(0usize, "source");
        let dot = g.to_dot(&roles);
        assert!(dot.contains("digraph mpflow"));
        assert!(dot.contains("lightskyblue"));
        assert!(dot.contains("->"));
    }
}
