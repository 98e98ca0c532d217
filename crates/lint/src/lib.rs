//! mp-lint: schema-aware static analysis for the MP datastore pipeline.
//!
//! Nine passes share one rustc-style diagnostics framework
//! ([`Diagnostic`]: severity, stable code, span-ish path, message,
//! optional suggestion). Passes 1–3 analyze *values* on the request
//! path (the query analyzer reports pass 5's `P001` too); passes 4–9 analyze the *source tree*
//! and are rows of one pass table ([`PASSES`]) over one [`Workspace`]
//! — the files read once, the call graph built once, one allow policy
//! ([`core`]):
//!
//! 1. **Query analyzer** ([`query`]) — checks Mongo-style filters against
//!    per-collection schemas inferred from sampled documents plus index
//!    metadata ([`schema::CollectionSchema`]). Codes `Q000`–`Q004`.
//! 2. **Workflow analyzer** ([`workflow`]) — cycle detection with the
//!    offending path, orphaned steps, fuse/binder consistency, duplicate
//!    ids. Codes `W001`–`W007`.
//! 3. **Data V&V** ([`vnv`]) — declarative per-collection contracts
//!    (required fields, types, ranges, cross-field invariants) applied to
//!    staged documents before commit. Codes `D001`–`D004`.
//! 4. **Concurrency** ([`concurrency`]) — source-level checks of lock
//!    use: guards held across lock-taking calls, same-receiver double
//!    locks. Codes `L003`, `L004`; `L001`/`L002` (a lock outside the
//!    mp-sync facade) are retired to the root `clippy.toml`.
//! 5. **Performance** ([`perf`]) — query shapes whose only possible plan
//!    is a full collection scan regardless of indexes (`P001`, which the
//!    query analyzer reports), plus a source scan for read-path
//!    regressions: deep-clone-per-document closures over shared result
//!    sets (`P002`). `P003` is retired: the uncompiled matcher it
//!    guarded is gone.
//! 6. **Flow** ([`flow`]) — interprocedural passes over the workspace
//!    call graph ([`callgraph`], built from per-function summaries in
//!    [`summary`]): taint tracking from request/staging sources to
//!    query sinks with sanitizer accounting (`S001`/`S002`), and
//!    panic-reachability from the public API surface with shortest
//!    panicking chains (`R001`–`R003`).
//! 7. **Hot path** ([`hotpath`]) — interprocedural allocation/cost
//!    analysis over the same call graph: hotness seeds at the
//!    per-document roots of the read path (compiled matcher/projection/
//!    comparator) and the loop regions of the scan/projection/
//!    aggregation/MapReduce drivers, propagates through calls, and
//!    flags per-document allocation anti-patterns (`H001`–`H007`) with
//!    the full hot call chain.
//! 8. **Effects** ([`effects`]) — interprocedural mutation-effect
//!    analysis over the same call graph: per-function effect summaries
//!    (mutates / bumps-generation / blocking-I/O / scatter) propagated
//!    bottom-up, proving the generation-bump and no-I/O-under-lock
//!    invariants (`E001`, `E003`, `E005`–`E007`; `E004` is retired to
//!    the root `clippy.toml`).
//! 9. **Order** ([`order`]) — no durability barrier inside a
//!    per-operation loop (`O004`, with `O006`/`O007` for its allows and
//!    its configuration).
//!
//! The write-ahead protocol itself — journal before apply, framed
//! records, verified recovery, acknowledge after the barrier — is not a
//! pass: `mp-docstore`'s types carry it, so a break is a compile error
//! (`E002` and `O001`–`O003`/`O005` are retired, DESIGN §7).
//!
//! `Error`-severity findings are used as hard gates by
//! `QueryEngine::sanitize`, `LaunchPad::add_workflow`, and
//! `DataLoader::drain`; `Warning`s are surfaced but never block.

#![deny(rust_2018_idioms)]

pub mod callgraph;
pub mod concurrency;
pub mod core;
pub mod diagnostics;
pub mod effects;
pub mod flow;
pub mod hotpath;
pub mod order;
pub mod perf;
pub mod query;
pub mod schema;
pub mod summary;
pub mod vnv;
pub mod workflow;

pub use crate::core::{FnRef, Pass, Scope, Workspace, PASSES};
pub use callgraph::CallGraph;
pub use concurrency::analyze_source;
pub use diagnostics::{has_errors, render, render_envelope, render_json, Diagnostic, Severity};
pub use effects::{
    analyze_effects, effect_graph_json, effect_roles, effect_summaries, EffectConfig, FnEffects,
};
pub use flow::{analyze_flow, FlowConfig};
pub use hotpath::{analyze_hotpath, HotConfig};
pub use order::{analyze_order, OrderConfig};
pub use perf::analyze_perf_source;
pub use query::{analyze_query, analyze_query_with_schema};
pub use schema::{CollectionSchema, TypeSet};
pub use summary::{summarize_source, FnSummary};
pub use vnv::{FieldCheck, FieldRule, Invariant, RuleSet};
pub use workflow::{analyze_workflow, WfNode};
