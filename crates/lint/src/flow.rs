//! Interprocedural taint and panic-reachability passes (`S0xx`/`R0xx`).
//!
//! Both passes run over the workspace [`CallGraph`]. The [`FlowConfig`]
//! names three function sets by `(impl type, name)`:
//!
//! * **sources** — where untrusted bytes enter: REST/webui request
//!   handlers and the staged-document loader.
//! * **sanitizers** — the choke points the paper mandates: the
//!   QueryEngine sanitizer family and the data V&V validators.
//! * **sinks** — where a filter or document reaches the datastore:
//!   `Filter::parse`/`compile`, the `Collection` query/update/delete
//!   surface, and the aggregation entry points.
//!
//! **S001** fires for every call chain from a source to a sink on which
//! no function is a sanitizer or directly calls one; the diagnostic
//! carries the full chain. **S002** fires when the config names a
//! function the workspace no longer defines (config drift would
//! otherwise silently disable the pass). **R001** fires for every
//! `unwrap`/`expect`/panic-macro site reachable from the public `mapi`
//! surface, with the shortest call chain from a `pub fn`; **R002** is
//! the same for index/slice sites; **R003** fires for an
//! `mp-flow: allow(...)` comment with no justification. All codes are
//! errors — CI gates the workspace at zero.

use crate::callgraph::CallGraph;
use crate::core::{reach, resolve, unjustified_allows, Dir, Drift, FnRef, Workspace};
use crate::diagnostics::Diagnostic;
use std::collections::BTreeMap;

const DRIFT: Drift = Drift {
    code: "S002",
    pass: "flow",
    config: "FlowConfig",
};

/// Configuration for both flow passes.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Untrusted-input entry points.
    pub sources: Vec<FnRef>,
    /// Sanitizer choke points; a chain crossing one is clean.
    pub sanitizers: Vec<FnRef>,
    /// Datastore sinks.
    pub sinks: Vec<FnRef>,
    /// Crate whose `pub fn`s are the panic-reachability roots.
    pub roots_crate: String,
}

impl FlowConfig {
    /// The Materials Project workspace defaults: REST/webui handlers and
    /// the staging loader as sources; the QueryEngine sanitizer family,
    /// data V&V, and the server-side filter builders as sanitizers; the
    /// filter parser/compiler, the `Collection` query surface, and the
    /// aggregation pipeline as sinks. Roots for panic reachability are
    /// the public functions of `mapi`.
    pub fn materials_project_defaults() -> Self {
        FlowConfig {
            sources: FnRef::list(&[
                "MaterialsApi::handle",
                "MaterialsApi::structured_query",
                "WebUi::search_page",
                "WebUi::material_page",
                "WebUi::stats_page",
                "WebUi::phase_diagram_page",
                "DataLoader::drain",
                "Sandbox::share",
                "Sandbox::publish",
            ]),
            sanitizers: FnRef::list(&[
                "QueryEngine::sanitize",
                "QueryEngine::sanitize_level",
                "QueryEngine::sanitize_pipeline",
                "RuleSet::validate",
                "visibility_filter",
                "Sandbox::scalar_only",
            ]),
            sinks: FnRef::list(&[
                "Filter::parse",
                "Filter::compile",
                "Collection::find",
                "Collection::find_with",
                "Collection::find_one",
                "Collection::count",
                "Collection::distinct",
                "Collection::update_one",
                "Collection::update_many",
                "Collection::upsert",
                "Collection::find_one_and_update",
                "Collection::delete_one",
                "Collection::delete_many",
                "Collection::aggregate",
                "parse_pipeline",
                "run_pipeline",
            ]),
            roots_crate: "mapi".to_string(),
        }
    }
}

/// S0xx: taint pass. A function is *protected* when it is a sanitizer
/// or directly calls one; the walk from each unprotected source never
/// expands through a protected node, and every sink reached yields one
/// S001 with the full chain.
pub fn analyze_taint(ws: &Workspace, config: &FlowConfig) -> Vec<Diagnostic> {
    let graph = &ws.graph;
    let mut diags = Vec::new();
    let sources = resolve(graph, &config.sources, "source", &DRIFT, &mut diags);
    let sanitizers = resolve(graph, &config.sanitizers, "sanitizer", &DRIFT, &mut diags);
    let sinks = resolve(graph, &config.sinks, "sink", &DRIFT, &mut diags);

    let protected: Vec<bool> = (0..graph.fns.len())
        .map(|i| sanitizers[i] || graph.out[i].iter().any(|&(j, _)| sanitizers[j]))
        .collect();

    for src in (0..graph.fns.len()).filter(|&i| sources[i] && !protected[i]) {
        let walk = reach(graph, Dir::Callees, [(src, None)], |_, v, _| {
            !sinks[v] && !protected[v]
        });
        for &u in &walk.order {
            for &(v, line) in graph.out[u].iter().filter(|&&(v, _)| sinks[v]) {
                let chain = format!("{} -> {}", walk.chain(graph, u), graph.fns[v].qualified());
                diags.push(
                    Diagnostic::error(
                        "S001",
                        format!("{}:{}", graph.fns[u].file, line),
                        format!(
                            "untrusted input from `{}` reaches sink `{}` with no \
                             sanitizer on the chain: {}",
                            graph.fns[src].qualified(),
                            graph.fns[v].qualified(),
                            chain
                        ),
                    )
                    .with_suggestion(
                        "route the request through QueryEngine::sanitize (or validate \
                         the document / reject non-scalar ids) before it reaches the \
                         datastore",
                    ),
                );
            }
        }
    }
    diags
}

/// R0xx: panic-reachability pass. Roots are every non-test `pub fn` of
/// `config.roots_crate`; the breadth-first walk yields shortest chains,
/// and each panic site in a reachable function is one diagnostic.
pub fn analyze_panic_reach(ws: &Workspace, config: &FlowConfig) -> Vec<Diagnostic> {
    let graph = &ws.graph;
    // R003 everywhere, reachable or not — a justification-free allow is
    // wrong even in dead code.
    let mut diags = unjustified_allows(ws, "R003");

    let roots = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_pub && f.crate_name == config.roots_crate)
        .map(|(i, _)| (i, None));
    let walk = reach(graph, Dir::Callees, roots, |_, _, _| true);

    for &i in &walk.order {
        let f = &graph.fns[i];
        for p in &f.panics {
            diags.push(
                Diagnostic::error(
                    p.kind.code(),
                    format!("{}:{}", f.file, p.line),
                    format!(
                        "{} in `{}` is reachable from the public `{}` surface: {} \
                         -> panic site at line {}",
                        p.kind.describe(),
                        f.qualified(),
                        config.roots_crate,
                        walk.chain(graph, i),
                        p.line
                    ),
                )
                .with_suggestion(
                    "return a typed error (ApiError) instead, or add a justified \
                     `mp-flow: allow(...)` if the invariant genuinely holds",
                ),
            );
        }
    }
    diags
}

/// Run both passes.
pub fn analyze_flow(ws: &Workspace, config: &FlowConfig) -> Vec<Diagnostic> {
    let mut diags = analyze_taint(ws, config);
    diags.extend(analyze_panic_reach(ws, config));
    diags
}

/// The pass-table entry: both passes with the Materials Project defaults.
pub fn pass(ws: &Workspace) -> Vec<Diagnostic> {
    analyze_flow(ws, &FlowConfig::materials_project_defaults())
}

/// Role map for DOT rendering: source / sanitizer / sink / panics.
pub fn roles(graph: &CallGraph, config: &FlowConfig) -> BTreeMap<usize, &'static str> {
    let mut m = BTreeMap::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if config.sources.iter().any(|r| r.is_match(f)) {
            m.insert(i, "source");
        } else if config.sanitizers.iter().any(|r| r.is_match(f)) {
            m.insert(i, "sanitizer");
        } else if config.sinks.iter().any(|r| r.is_match(f)) {
            m.insert(i, "sink");
        } else if !f.panics.is_empty() {
            m.insert(i, "panics");
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{workspace_of, Scope};
    use std::path::Path;

    fn cfg(sources: &[&str], sanitizers: &[&str], sinks: &[&str], roots: &str) -> FlowConfig {
        FlowConfig {
            sources: sources.iter().map(|s| FnRef::parse(s)).collect(),
            sanitizers: sanitizers.iter().map(|s| FnRef::parse(s)).collect(),
            sinks: sinks.iter().map(|s| FnRef::parse(s)).collect(),
            roots_crate: roots.to_string(),
        }
    }

    /// A seeded sanitizer bypass three calls deep is caught with the
    /// full chain in the message.
    #[test]
    fn taint_reports_bypass_with_full_chain() {
        let g = workspace_of(
            &[
                (
                    "crates/api/src/lib.rs",
                    "pub struct Api;\nimpl Api {\n\
                     pub fn handle(&self, q: &str) { relay(q); }\n}\n\
                     fn relay(q: &str) { forward(q); }\n\
                     fn forward(q: &str) { Filter::parse(q); }\n",
                ),
                (
                    "crates/store/src/lib.rs",
                    "pub struct Filter;\nimpl Filter {\n\
                     pub fn parse(q: &str) -> Filter { Filter }\n}\n",
                ),
            ],
            &[("api", &["store"]), ("store", &[])],
        );
        let diags = analyze_taint(
            &g,
            &cfg(
                &["Api::handle"],
                &["Engine::sanitize"],
                &["Filter::parse"],
                "api",
            ),
        );
        let s001: Vec<_> = diags.iter().filter(|d| d.code == "S001").collect();
        assert_eq!(s001.len(), 1, "{diags:?}");
        let msg = &s001[0].message;
        assert!(
            msg.contains("api::Api::handle -> api::relay -> api::forward -> store::Filter::parse"),
            "{msg}"
        );
        // The sanitizer ref has no workspace match → S002 config drift.
        assert!(diags.iter().any(|d| d.code == "S002"), "{diags:?}");
    }

    /// The same chain with a sanitizer call on it is clean.
    #[test]
    fn taint_chain_through_sanitizer_is_clean() {
        let g = workspace_of(
            &[
                (
                    "crates/api/src/lib.rs",
                    "pub struct Api;\nimpl Api {\n\
                     pub fn handle(&self, q: &str) { relay(q); }\n}\n\
                     fn relay(q: &str) { Engine::sanitize(q); forward(q); }\n\
                     fn forward(q: &str) { Filter::parse(q); }\n\
                     pub struct Engine;\nimpl Engine {\n\
                     pub fn sanitize(q: &str) {}\n}\n",
                ),
                (
                    "crates/store/src/lib.rs",
                    "pub struct Filter;\nimpl Filter {\n\
                     pub fn parse(q: &str) -> Filter { Filter }\n}\n",
                ),
            ],
            &[("api", &["store"]), ("store", &[])],
        );
        let diags = analyze_taint(
            &g,
            &cfg(
                &["Api::handle"],
                &["Engine::sanitize"],
                &["Filter::parse"],
                "api",
            ),
        );
        assert!(
            diags.iter().all(|d| d.code != "S001"),
            "sanitized chain flagged: {diags:?}"
        );
    }

    /// A seeded request-path unwrap two calls deep is caught with the
    /// shortest chain.
    #[test]
    fn panic_reach_reports_unwrap_with_chain() {
        let g = workspace_of(
            &[(
                "crates/api/src/lib.rs",
                "pub struct Api;\nimpl Api {\n\
                 pub fn handle(&self, q: &str) { route(q); }\n}\n\
                 fn route(q: &str) { pick(q); }\n\
                 fn pick(q: &str) -> char { q.chars().next().unwrap() }\n",
            )],
            &[("api", &[])],
        );
        let diags = analyze_panic_reach(&g, &cfg(&[], &[], &[], "api"));
        let r001: Vec<_> = diags.iter().filter(|d| d.code == "R001").collect();
        assert_eq!(r001.len(), 1, "{diags:?}");
        assert!(
            r001[0]
                .message
                .contains("api::Api::handle -> api::route -> api::pick"),
            "{}",
            r001[0].message
        );
        assert!(r001[0].path.starts_with("crates/api/src/lib.rs:"));
    }

    /// Unreachable panics (private fn nobody on the surface calls) are
    /// not reported; a justified allow suppresses a reachable one.
    #[test]
    fn panic_reach_respects_reachability_and_allowlist() {
        let g = workspace_of(
            &[(
                "crates/api/src/lib.rs",
                "pub struct Api;\nimpl Api {\n\
                 pub fn handle(&self) { safe(); }\n}\n\
                 fn safe() -> u8 {\n\
                 \x20   // mp-flow: allow(R001) — invariant: static non-empty literal\n\
                 \x20   *[1u8].first().unwrap()\n\
                 }\n\
                 fn dead(x: Option<u8>) -> u8 { x.unwrap() }\n",
            )],
            &[("api", &[])],
        );
        let diags = analyze_panic_reach(&g, &cfg(&[], &[], &[], "api"));
        assert!(
            diags.iter().all(|d| d.code != "R001"),
            "allowed/unreachable site flagged: {diags:?}"
        );
    }

    /// An allow with no justification is an R003 error.
    #[test]
    fn bare_allow_is_r003() {
        let g = workspace_of(
            &[(
                "crates/api/src/lib.rs",
                "pub fn handle(x: Option<u8>) -> u8 {\n\
                 \x20   x.unwrap() // mp-flow: allow(R001)\n\
                 }\n",
            )],
            &[("api", &[])],
        );
        let diags = analyze_panic_reach(&g, &cfg(&[], &[], &[], "api"));
        assert!(diags.iter().any(|d| d.code == "R003"), "{diags:?}");
    }

    /// Index sites are R002 with the same reachability rules.
    #[test]
    fn index_sites_are_r002() {
        let g = workspace_of(
            &[(
                "crates/api/src/lib.rs",
                "pub fn handle(xs: &[u8]) -> u8 { first(xs) }\n\
                 fn first(xs: &[u8]) -> u8 { xs[0] }\n",
            )],
            &[("api", &[])],
        );
        let diags = analyze_panic_reach(&g, &cfg(&[], &[], &[], "api"));
        assert!(diags.iter().any(|d| d.code == "R002"), "{diags:?}");
    }

    #[test]
    fn workspace_is_flow_clean() {
        // The acceptance gate: both flow passes report zero findings on
        // the whole workspace with the Materials Project defaults. Every
        // surviving panic site carries a justified `mp-flow: allow(...)`.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = Workspace::scan(&root, &[&Scope::GRAPH]).expect("scan workspace");
        let diags = pass(&ws);
        assert!(
            diags.is_empty(),
            "workspace flow findings:\n{}",
            crate::diagnostics::render(&diags)
        );
    }
}
