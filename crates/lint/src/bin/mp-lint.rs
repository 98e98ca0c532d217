//! CLI front-end for the analysis passes.
//!
//! ```text
//! mp-lint query <query.json> [--db <dir>] [--collection <name>] [--json]
//! mp-lint workflow <workflow.json> [--json]
//! mp-lint data <doc.json> [<doc.json> ...] [--json]
//! mp-lint <pass> [<root>] [--json]
//! mp-lint all [<root>] [--json]
//! mp-lint callgraph [<root>] [--dot [--effects] | --json]
//! ```
//!
//! `query` lints a Mongo-style filter document; with `--db` it recovers a
//! persisted database directory, infers the collection's schema, and runs
//! the schema-aware checks too. `workflow` lints a serialized workflow
//! document. `data` validates task documents against the default V&V
//! contract.
//!
//! `<pass>` is any row of the source-tree pass table
//! ([`mp_lint::PASSES`] — what each pass proves is documented on its
//! module): the workspace under `<root>` (default `.`) is scanned once
//! for the files in that pass's scope and the pass runs over it. `all`
//! scans once for every pass and merges the findings into one envelope
//! with per-pass counts and one exit code. `callgraph` prints the graph
//! (GraphViz DOT with `--dot`, role-colored: sources blue, sanitizers
//! green, sinks gold, panicking fns red; add `--effects` to color by
//! effect instead: mutation primitives gold, generation bumps blue,
//! I/O red), or the effect-annotated graph as JSON with `--json` (the
//! artifact CI uploads).
//!
//! Every pass obeys one contract: diagnostics are ordered by
//! (file, line, code); `--json` emits the shared envelope
//! `{"pass": ..., "findings": [...], "counts": {...}}` (schema in
//! DESIGN.md §12); the exit status is 1 when *any* finding fires —
//! warnings included, the workspace invariant is zero — and 2 on
//! usage/IO problems.

use std::process::ExitCode;

use mp_docstore::Persister;
use mp_lint::{
    analyze_query, analyze_query_with_schema, analyze_workflow, render, render_envelope,
    CollectionSchema, Diagnostic, Pass, RuleSet, Scope, WfNode, Workspace, PASSES,
};
use serde_json::Value;

fn usage() -> String {
    let passes: String = PASSES
        .iter()
        .map(|p| {
            let codes: Vec<String> = p.codes.chars().map(|c| format!("{c}0xx")).collect();
            format!(
                "  mp-lint {} [<root>] [--json]  ({})\n",
                p.name,
                codes.join(", ")
            )
        })
        .collect();
    format!(
        "usage:
  mp-lint query <query.json> [--db <dir>] [--collection <name>] [--json]
  mp-lint workflow <workflow.json> [--json]
  mp-lint data <doc.json> [<doc.json> ...] [--json]
{passes}  mp-lint all [<root>] [--json]
  mp-lint callgraph [<root>] [--dot [--effects] | --json]"
    )
}

const SCHEMA_SAMPLE: usize = 256;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mp-lint: {e}");
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

/// Returns `Ok(true)` when the pass reported zero findings.
fn run(args: &[String]) -> Result<bool, String> {
    let mode = args
        .first()
        .map(String::as_str)
        .ok_or("missing subcommand")?;
    let json = args[1..].iter().any(|a| a == "--json");
    let rest: Vec<String> = args[1..]
        .iter()
        .filter(|a| a.as_str() != "--json")
        .cloned()
        .collect();
    match mode {
        "query" => lint_query(&rest, json),
        "workflow" => lint_workflow(&rest, json),
        "data" => lint_data(&rest, json),
        "all" => lint_tree("all", PASSES, &rest, json),
        "callgraph" => print_callgraph(&rest, json),
        other => match PASSES.iter().position(|p| p.name == other) {
            Some(i) => lint_tree(other, &PASSES[i..=i], &rest, json),
            None => Err(format!("unknown subcommand `{other}`")),
        },
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("`{path}` is not valid JSON: {e}"))
}

/// The one reporting contract shared by every pass: the envelope under
/// `--json`, `(file, line, code)`-ordered text otherwise, and a clean
/// bit that is true only at zero findings.
fn report(pass: &str, label: &str, diags: &[Diagnostic], json: bool) -> bool {
    if json {
        println!("{}", render_envelope(pass, diags));
    } else if diags.is_empty() {
        println!("{label}: clean");
    } else {
        println!("{}", render(diags));
    }
    diags.is_empty()
}

/// Shared driver for the source-tree passes: one optional root
/// argument, one scan of the workspace for the files the given passes
/// read, one reporting contract. More than one pass (`all`) merges the
/// findings into one envelope with the counts broken out per pass.
fn lint_tree(label: &str, passes: &[Pass], args: &[String], json: bool) -> Result<bool, String> {
    let root = args.first().map(String::as_str).unwrap_or(".");
    if let Some(extra) = args.get(1) {
        return Err(format!("{label}: unexpected argument `{extra}`"));
    }
    let scopes: Vec<&Scope> = passes.iter().map(|p| p.scope).collect();
    let ws = Workspace::scan(std::path::Path::new(root), &scopes)
        .map_err(|e| format!("scan `{root}`: {e}"))?;
    let mut merged: Vec<Diagnostic> = Vec::new();
    let mut by_pass = serde_json::Map::new();
    for pass in passes {
        let diags = (pass.run)(&ws);
        let errors = diags
            .iter()
            .filter(|d| d.severity == mp_lint::Severity::Error)
            .count();
        by_pass.insert(
            pass.name.to_string(),
            serde_json::json!({
                "error": errors,
                "warning": diags.len() - errors,
                "total": diags.len(),
            }),
        );
        merged.extend(diags);
    }
    if passes.len() == 1 {
        return Ok(report(label, root, &merged, json));
    }
    if json {
        // The shared envelope, plus a per-pass counts breakdown: the
        // `findings`/`counts` fields parse exactly like any single
        // pass's envelope.
        let envelope: serde_json::Value = serde_json::from_str(&render_envelope(label, &merged))
            .map_err(|e| format!("internal envelope error: {e}"))?;
        let mut obj = envelope.as_object().cloned().unwrap_or_default();
        obj.insert("passes".to_string(), serde_json::Value::Object(by_pass));
        println!("{}", serde_json::Value::Object(obj));
    } else if merged.is_empty() {
        println!("{root}: clean ({} passes)", passes.len());
    } else {
        println!("{}", render(&merged));
    }
    Ok(merged.is_empty())
}

fn lint_query(args: &[String], json: bool) -> Result<bool, String> {
    let file = args.first().ok_or("query: missing <query.json>")?;
    let mut db_dir = None;
    let mut collection = "tasks".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--db" => {
                db_dir = Some(args.get(i + 1).ok_or("--db needs a directory")?.clone());
                i += 2;
            }
            "--collection" => {
                collection = args.get(i + 1).ok_or("--collection needs a name")?.clone();
                i += 2;
            }
            other => return Err(format!("query: unknown flag `{other}`")),
        }
    }

    let raw = read_json(file)?;
    let diags = match db_dir {
        None => analyze_query(&raw),
        Some(dir) => {
            let mut persister = Persister::open(&dir).map_err(|e| format!("open `{dir}`: {e}"))?;
            let db = persister
                .recover()
                .map_err(|e| format!("recover `{dir}`: {e}"))?;
            let coll = db.collection(&collection);
            let schema = CollectionSchema::infer(&coll, SCHEMA_SAMPLE);
            analyze_query_with_schema(&raw, &schema, &std::collections::BTreeMap::new())
        }
    };
    Ok(report("query", file, &diags, json))
}

fn lint_workflow(args: &[String], json: bool) -> Result<bool, String> {
    let file = args.first().ok_or("workflow: missing <workflow.json>")?;
    if let Some(extra) = args.get(1) {
        return Err(format!("workflow: unexpected argument `{extra}`"));
    }
    let doc = read_json(file)?;
    let nodes = WfNode::from_workflow_json(&doc)?;
    Ok(report("workflow", file, &analyze_workflow(&nodes), json))
}

fn lint_data(args: &[String], json: bool) -> Result<bool, String> {
    if args.is_empty() {
        return Err("data: missing <doc.json>".to_string());
    }
    let rules = RuleSet::task_defaults();
    let mut all = Vec::new();
    for file in args {
        let doc = read_json(file)?;
        // Prefix each finding's path with the originating file so the
        // merged batch stays attributable and deterministically ordered.
        all.extend(rules.validate(&doc).into_iter().map(|mut d| {
            d.path = format!("{file}:{}", d.path);
            d
        }));
    }
    let label = args.join(", ");
    Ok(report("data", &label, &all, json))
}

fn print_callgraph(args: &[String], as_json: bool) -> Result<bool, String> {
    let mut root = ".".to_string();
    let mut dot = false;
    let mut effects = false;
    for a in args {
        match a.as_str() {
            "--dot" => dot = true,
            "--effects" => effects = true,
            other if !other.starts_with('-') => root.clone_from(a),
            other => return Err(format!("callgraph: unknown flag `{other}`")),
        }
    }
    let ws = Workspace::scan(std::path::Path::new(&root), &[&Scope::GRAPH])
        .map_err(|e| format!("scan `{root}`: {e}"))?;
    let graph = &ws.graph;
    if as_json {
        let config = mp_lint::EffectConfig::materials_project_defaults();
        println!("{}", mp_lint::effect_graph_json(&ws, &config));
    } else if dot && effects {
        let config = mp_lint::EffectConfig::materials_project_defaults();
        println!("{}", graph.to_dot(&mp_lint::effect_roles(&ws, &config)));
    } else if dot {
        let config = mp_lint::FlowConfig::materials_project_defaults();
        println!("{}", graph.to_dot(&mp_lint::flow::roles(graph, &config)));
    } else {
        println!("{} functions, {} edges", graph.fns.len(), graph.edges.len());
        for e in &graph.edges {
            println!(
                "{} -> {}",
                graph.fns[e.from].qualified(),
                graph.fns[e.to].qualified()
            );
        }
    }
    Ok(true)
}
