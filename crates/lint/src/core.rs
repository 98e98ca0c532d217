//! The analysis core every source-tree pass stands on.
//!
//! One [`Workspace`] is built per invocation — every scanned file read
//! and masked once ([`SourceFile`]), every function summarized once
//! (with its body extent), one call graph — and the passes in
//! [`PASSES`] are functions over it. Everything the passes share lives
//! here and nowhere else:
//!
//! * the **allow policy** ([`Allow`], [`SourceFile::allowed`]): one
//!   parser for both marker spellings, one definition of the three
//!   contexts an allow covers, one unjustified-allow check
//!   ([`unjustified_allows`]) reporting under each pass's own code;
//! * **config resolution** ([`FnRef`], [`resolve`]) with the drift
//!   diagnostic, and the `DESIGN.md` coverage check
//!   ([`design_coverage`]);
//! * the **reachability walk** ([`reach`]) with parent links and its
//!   chain rendering ([`Reach::chain`]), and the std-shadowed method
//!   names ([`shadowed`]) no walk follows;
//! * the **directory walker**, taking each pass's [`Scope`] as data.
//!
//! A pass file keeps only its config, its lattice and its rules.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::RangeInclusive;
use std::path::Path;

use crate::callgraph::CallGraph;
use crate::concurrency::match_positions;
use crate::diagnostics::Diagnostic;
use crate::summary::{mask_source, summarize_file, FnSummary};

// ---------------------------------------------------------------------------
// Allow policy
// ---------------------------------------------------------------------------

/// The two marker spellings (`R` codes are conventionally written under
/// the second). Assembled with `concat!` so this crate's sources never
/// match their own marker.
pub(crate) const ALLOW_MARKS: [&str; 2] = [
    concat!("mp-", "lint: allow("),
    concat!("mp-", "flow: allow("),
];

/// One parsed allow comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The codes between the parentheses.
    pub codes: Vec<String>,
    /// At least eight characters of prose follow the closing paren.
    pub justified: bool,
}

impl Allow {
    /// The first allow marker on a raw line, if any.
    pub fn parse(raw: &str) -> Option<Allow> {
        let (start, mark) = ALLOW_MARKS
            .iter()
            .filter_map(|m| raw.find(m).map(|p| (p, m)))
            .min_by_key(|&(p, _)| p)?;
        let rest = &raw[start + mark.len()..];
        let end = rest.find(')')?;
        let codes = rest[..end]
            .split(',')
            .map(|c| c.trim().to_string())
            .filter(|c| !c.is_empty())
            .collect();
        let justification = rest[end + 1..]
            .trim_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '-' | ':' | '.' | ','));
        Some(Allow {
            codes,
            justified: justification.chars().count() >= 8,
        })
    }

    fn names(&self, code: &str) -> bool {
        self.codes.iter().any(|c| c == code)
    }

    fn names_family(&self, prefix: char) -> bool {
        self.codes.iter().any(|c| c.starts_with(prefix))
    }
}

/// One scanned file: raw lines (allow comments live in them), masked
/// lines (what structural and pattern scans read), and the allows
/// parsed off the raw lines.
pub struct SourceFile {
    /// The file's lines as written.
    pub raw: Vec<String>,
    /// The same lines with strings, chars and comments blanked
    /// ([`mask_source`]).
    pub masked: Vec<String>,
    /// 1-based line → the allow on it.
    allows: BTreeMap<usize, Allow>,
}

impl SourceFile {
    /// Split, mask and index one file's text.
    pub fn parse(text: &str) -> SourceFile {
        let raw: Vec<String> = text.lines().map(str::to_string).collect();
        let allows = raw
            .iter()
            .enumerate()
            .filter_map(|(idx, line)| Allow::parse(line).map(|a| (idx + 1, a)))
            .collect();
        SourceFile {
            masked: mask_source(text).lines().map(str::to_string).collect(),
            raw,
            allows,
        }
    }

    /// The masked text of 1-based `line` (empty past either end).
    pub fn masked_line(&self, line: usize) -> &str {
        self.masked
            .get(line.wrapping_sub(1))
            .map(String::as_str)
            .unwrap_or("")
    }

    /// First line of the contiguous comment/attribute block directly
    /// above 1-based `fn_line` (`fn_line` itself when there is none).
    pub fn block_start(&self, fn_line: usize) -> usize {
        let mut start = fn_line;
        while start >= 2 {
            let lead = self.raw.get(start - 2).map_or("", |l| l.trim_start());
            if !lead.starts_with("//") && !lead.starts_with("#[") {
                break;
            }
            start -= 1;
        }
        start
    }

    /// Allows in the site contexts of `line`: the line itself and the
    /// line directly above.
    fn site_allows(&self, line: usize) -> impl Iterator<Item = &Allow> {
        [line, line.wrapping_sub(1)]
            .into_iter()
            .filter_map(|l| self.allows.get(&l))
    }

    /// Is `code` allowed at `line` of the function whose signature
    /// starts on `fn_line`? The three contexts of the allow policy
    /// (DESIGN §7): the site line, the line directly above it, and the
    /// function level — the signature line or any line of the
    /// contiguous comment/attribute block above it, covering the whole
    /// body. An unjustified allow still suppresses; it is reported on
    /// its own ([`unjustified_allows`]).
    pub fn allowed(&self, code: &str, line: usize, fn_line: usize) -> bool {
        self.site_allows(line)
            .chain(
                self.allows
                    .range(self.block_start(fn_line)..=fn_line)
                    .map(|(_, a)| a),
            )
            .any(|a| a.names(code))
    }

    /// Does a site context of `line` carry an allow naming any code of
    /// the `prefix` family?
    pub fn site_allows_family(&self, line: usize, prefix: char) -> bool {
        self.site_allows(line).any(|a| a.names_family(prefix))
    }

    /// Lines within `lines` whose allow names a `prefix`-family code
    /// and carries no justification.
    pub fn unjustified(&self, lines: RangeInclusive<usize>, prefix: char) -> Vec<usize> {
        self.allows
            .range(lines)
            .filter(|(_, a)| !a.justified && a.names_family(prefix))
            .map(|(&l, _)| l)
            .collect()
    }
}

/// One row per family whose allows must be justified.
struct AllowRule {
    /// The code a bare allow is reported under.
    code: &'static str,
    /// The marker spelling the message quotes.
    mark: &'static str,
    /// `R` allows are charged to the function they sit in (and only
    /// there — the summarizer records them); the others anywhere in a
    /// scanned file, cold code included.
    per_fn: bool,
    /// The example justification the suggestion offers.
    example: &'static str,
}

const ALLOW_RULES: &[AllowRule] = &[
    AllowRule {
        code: "R003",
        mark: ALLOW_MARKS[1],
        per_fn: true,
        example: "R001) — invariant: checked non-empty above",
    },
    AllowRule {
        code: "H006",
        mark: ALLOW_MARKS[0],
        per_fn: false,
        example: "H002) — one output row per group is inherent",
    },
    AllowRule {
        code: "E006",
        mark: ALLOW_MARKS[0],
        per_fn: false,
        example: "E003) — snapshot must exclude appenders for its whole duration",
    },
    AllowRule {
        code: "O006",
        mark: ALLOW_MARKS[0],
        per_fn: false,
        example: "O004) — bootstrap writes the initial manifest once",
    },
];

/// Every allow of `code`'s family (`H006` → `H…`) that carries no
/// justification, reported under `code`.
pub fn unjustified_allows(ws: &Workspace, code: &str) -> Vec<Diagnostic> {
    let Some(rule) = ALLOW_RULES.iter().find(|r| r.code == code) else {
        return Vec::new();
    };
    let (mark, prefix) = (rule.mark, code.chars().next().unwrap_or(' '));
    let mut diags = Vec::new();
    let mut report = |path: &str, line: usize, what: String| {
        diags.push(
            Diagnostic::error(
                rule.code,
                format!("{path}:{line}"),
                format!("{what} has no justification"),
            )
            .with_suggestion(format!(
                "append a justification after the closing paren, e.g. `{mark}{}`",
                rule.example
            )),
        );
    };
    if rule.per_fn {
        for f in &ws.graph.fns {
            for &line in &f.bad_allows {
                report(
                    &f.file,
                    line,
                    format!("`{mark}...)` in `{}`", f.qualified()),
                );
            }
        }
    } else {
        for (path, file) in ws.files(&Scope::GRAPH) {
            for line in file.unjustified(1..=file.raw.len(), prefix) {
                report(path, line, format!("`{mark}{prefix}...)`"));
            }
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Config references, drift, DESIGN coverage
// ---------------------------------------------------------------------------

/// A function named by a pass config: optional impl type plus name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnRef {
    /// `Some("QueryEngine")` to match only methods of that type; `None`
    /// matches free functions and methods of any type.
    pub type_name: Option<String>,
    /// Function name.
    pub name: String,
}

impl FnRef {
    /// `"QueryEngine::sanitize"` or `"visibility_filter"`.
    pub fn parse(s: &str) -> Self {
        match s.split_once("::") {
            Some((t, n)) => FnRef {
                type_name: Some(t.to_string()),
                name: n.to_string(),
            },
            None => FnRef {
                type_name: None,
                name: s.to_string(),
            },
        }
    }

    /// Parse a whole config list.
    pub fn list(names: &[&str]) -> Vec<FnRef> {
        names.iter().map(|s| FnRef::parse(s)).collect()
    }

    pub(crate) fn is_match(&self, f: &FnSummary) -> bool {
        if f.name != self.name {
            return false;
        }
        match &self.type_name {
            Some(t) => f.impl_type.as_deref() == Some(t.as_str()),
            None => true,
        }
    }

    pub(crate) fn display(&self) -> String {
        match &self.type_name {
            Some(t) => format!("{}::{}", t, self.name),
            None => self.name.clone(),
        }
    }
}

/// How one pass reports config drift: its code, its name as the
/// message spells it, and the config type the suggestion points at.
pub struct Drift {
    /// `S002` / `H007` / `E007` / `O007`.
    pub code: &'static str,
    /// `flow` / `hotpath` / `effects` / `order`.
    pub pass: &'static str,
    /// `FlowConfig` / `HotConfig` / …
    pub config: &'static str,
}

/// Resolve a ref list against the graph: the mask of matched functions,
/// plus one drift diagnostic per ref with zero matches (config drift
/// would otherwise silently disable the pass).
pub fn resolve(
    graph: &CallGraph,
    refs: &[FnRef],
    kind: &str,
    drift: &Drift,
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
                    drift.code,
                    r.display(),
                    format!(
                        "{} config names {kind} `{}` but the workspace defines no such \
                         function — the pass would silently skip it",
                        drift.pass,
                        r.display()
                    ),
                )
                .with_suggestion(format!(
                    "update {} (or materials_project_defaults) to match the renamed \
                     or removed function",
                    drift.config
                )),
            );
        }
    }
    mask
}

/// `DESIGN.md` must document every code of a pass — the allow policy
/// is part of the public contract. `what` is how the message names the
/// family (`effects` / `ordering`). Silent when the workspace has no
/// `DESIGN.md`.
pub fn design_coverage(
    ws: &Workspace,
    codes: &[&str],
    what: &str,
    drift: &Drift,
) -> Vec<Diagnostic> {
    let Some(text) = &ws.design else {
        return Vec::new();
    };
    codes
        .iter()
        .filter(|code| !text.contains(*code))
        .map(|code| {
            Diagnostic::error(
                drift.code,
                "DESIGN.md",
                format!(
                    "DESIGN.md does not document `{code}` — every {what} code and its \
                     allow policy must be specified"
                ),
            )
            .with_suggestion(format!("add the code to the {what} section of DESIGN.md"))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Reachability
// ---------------------------------------------------------------------------

/// Method names shared with the std containers. A bare `m.insert(k, v)`
/// or `v.len()` resolves by name+arity to any same-named workspace
/// method (`Index::insert`, `Collection::len`), so following those
/// edges would manufacture chains out of plain `BTreeMap`/`Vec` calls.
/// Nothing — hotness, effects — propagates *through* a
/// method with one of these names; its body is still scanned when a
/// config names it.
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

/// Is function `v` a method whose name a std container shares?
pub fn shadowed(graph: &CallGraph, v: usize) -> bool {
    let f = &graph.fns[v];
    f.impl_type.is_some() && STD_SHADOWED.contains(&f.name.as_str())
}

/// Which way [`reach`] follows call edges.
#[derive(Clone, Copy)]
pub enum Dir {
    /// Caller → callee.
    Callees,
    /// Callee → caller.
    Callers,
}

/// The result of one reachability walk.
pub struct Reach {
    /// Was the function reached (seeds included)?
    pub seen: Vec<bool>,
    /// Reached functions in breadth-first order.
    pub order: Vec<usize>,
    /// Reached function → the function it was first reached from.
    pub parent: BTreeMap<usize, usize>,
}

impl Reach {
    /// `a::root -> a::mid -> a::node`: the chain of first-reached-from
    /// links ending at `node`.
    pub fn chain(&self, graph: &CallGraph, mut node: usize) -> String {
        let mut rev = vec![node];
        while let Some(&p) = self.parent.get(&node) {
            node = p;
            rev.push(node);
        }
        rev.reverse();
        rev.iter()
            .map(|&i| graph.fns[i].qualified())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Breadth-first walk over the call graph from `seeds` (each with the
/// function it counts as reached from, if any), following an edge only
/// when `follow(from, to, call line)` says so.
pub fn reach(
    graph: &CallGraph,
    dir: Dir,
    seeds: impl IntoIterator<Item = (usize, Option<usize>)>,
    mut follow: impl FnMut(usize, usize, usize) -> bool,
) -> Reach {
    let mut r = Reach {
        seen: vec![false; graph.fns.len()],
        order: Vec::new(),
        parent: BTreeMap::new(),
    };
    let mut q = VecDeque::new();
    for (v, from) in seeds {
        if !r.seen[v] {
            r.seen[v] = true;
            r.parent.extend(from.map(|u| (v, u)));
            q.push_back(v);
        }
    }
    while let Some(u) = q.pop_front() {
        r.order.push(u);
        let edges = match dir {
            Dir::Callees => &graph.out[u],
            Dir::Callers => &graph.rin[u],
        };
        for &(v, line) in edges {
            if !r.seen[v] && follow(u, v, line) {
                r.seen[v] = true;
                r.parent.insert(v, u);
                q.push_back(v);
            }
        }
    }
    r
}

/// Does any pattern occur in the (masked) segment?
pub fn matches_any(seg: &str, pats: &[&str]) -> bool {
    pats.iter().any(|p| !match_positions(seg, p).is_empty())
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

/// Which files a pass reads, as data.
pub struct Scope {
    /// Only files under `crates/<name>/src/`.
    pub crate_src_only: bool,
    /// `crates/<name>` trees left out.
    pub skip_crates: &'static [&'static str],
    /// Directory names left out wherever they appear (below `src/` when
    /// `crate_src_only`).
    pub skip_dirs: &'static [&'static str],
}

impl Scope {
    /// Every `.rs` file of the workspace, tests and examples included
    /// (the per-file `P0xx` scan).
    pub const TREE: Scope = Scope {
        crate_src_only: false,
        skip_crates: &[],
        skip_dirs: &[],
    };
    /// [`Scope::TREE`] minus the facade crate, which constructs raw
    /// locks by design (the `L0xx` scan).
    pub const OUTSIDE_FACADE: Scope = Scope {
        skip_crates: &["sync"],
        ..Scope::TREE
    };
    /// Product sources only — what the call graph is built from.
    /// `sync`'s rank-violation panics are its contract (debug-build
    /// deadlock detection) and `bench` is a harness, not servable
    /// surface.
    pub const GRAPH: Scope = Scope {
        crate_src_only: true,
        skip_crates: &["sync", "bench"],
        skip_dirs: &["tests", "examples", "benches", "fixtures"],
    };

    /// Is the root-relative, `/`-separated path in scope?
    pub fn includes(&self, rel: &str) -> bool {
        let mut dirs: Vec<&str> = rel.split('/').collect();
        dirs.pop();
        let dirs = dirs.as_slice();
        if let ["crates", name, ..] = dirs {
            if self.skip_crates.contains(name) {
                return false;
            }
        }
        let dirs = match (self.crate_src_only, dirs) {
            (true, ["crates", _, "src", below @ ..]) => below,
            (true, _) => return false,
            (false, all) => all,
        };
        !dirs.iter().any(|d| self.skip_dirs.contains(d))
    }
}

/// Directories no pass reads: build output, vendored shims (third-party
/// API surface), VCS metadata.
const NEVER_SCANNED: &[&str] = &["target", "shims", ".git"];

/// Read every wanted `.rs` file under `dir` into `out` as (root-relative
/// path, text). The walk is sorted so summary order — and with it node
/// indexes, edge order and diagnostic order — is the same on every
/// filesystem.
fn walk_rs(
    dir: &Path,
    root: &Path,
    wanted: &dyn Fn(&str) -> bool,
    out: &mut Vec<(String, String)>,
) -> std::io::Result<()> {
    let mut entries = std::fs::read_dir(dir)?.collect::<std::io::Result<Vec<_>>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if !NEVER_SCANNED.contains(&name.as_str()) {
                walk_rs(&path, root, wanted, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if wanted(&rel) {
                out.push((rel, std::fs::read_to_string(&path)?));
            }
        }
    }
    Ok(())
}

/// `crate → in-workspace crates it may call into`, from each
/// `crates/<name>/Cargo.toml` (workspace deps are all `mp-<dir>`).
fn crate_deps(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return deps;
    };
    for entry in entries.flatten() {
        let Ok(manifest) = std::fs::read_to_string(entry.path().join("Cargo.toml")) else {
            continue;
        };
        let dep_set = deps
            .entry(entry.file_name().to_string_lossy().to_string())
            .or_default();
        for line in manifest.lines() {
            // `mp-docstore = { path = "../docstore" }`
            let dep = line
                .trim()
                .strip_prefix("mp-")
                .and_then(|rest| rest.split(['=', ' ', '.']).next());
            dep_set.extend(dep.filter(|d| !d.is_empty()).map(str::to_string));
        }
    }
    deps
}

/// Everything one `mp-lint` invocation knows about the source tree.
pub struct Workspace {
    /// The call graph over the [`Scope::GRAPH`] files.
    pub graph: CallGraph,
    /// The text of `DESIGN.md`, when the root has one.
    pub design: Option<String>,
    /// Every file read, by root-relative path.
    files: BTreeMap<String, SourceFile>,
}

impl Workspace {
    /// Read the files under `root` that any of `scopes` includes, once,
    /// and build the call graph over those of them in [`Scope::GRAPH`].
    pub fn scan(root: &Path, scopes: &[&Scope]) -> std::io::Result<Workspace> {
        let mut sources = Vec::new();
        let wanted = |rel: &str| scopes.iter().any(|s| s.includes(rel));
        walk_rs(root, root, &wanted, &mut sources)?;
        let mut ws = Workspace::from_sources(sources, &crate_deps(root));
        ws.design = std::fs::read_to_string(root.join("DESIGN.md")).ok();
        Ok(ws)
    }

    /// Build a workspace from (root-relative path, text) pairs in walk
    /// order and the per-crate dependency relation.
    pub fn from_sources(
        sources: Vec<(String, String)>,
        deps: &BTreeMap<String, BTreeSet<String>>,
    ) -> Workspace {
        let mut fns = Vec::new();
        let mut files = BTreeMap::new();
        for (path, text) in sources {
            let file = SourceFile::parse(&text);
            if Scope::GRAPH.includes(&path) {
                fns.extend(summarize_file(&path, &file));
            }
            files.insert(path, file);
        }
        Workspace {
            graph: CallGraph::build(fns, deps),
            design: None,
            files,
        }
    }

    /// The files in `scope`, by path.
    pub fn files<'a>(
        &'a self,
        scope: &'a Scope,
    ) -> impl Iterator<Item = (&'a str, &'a SourceFile)> {
        self.files
            .iter()
            .filter(|(path, _)| scope.includes(path))
            .map(|(path, file)| (path.as_str(), file))
    }

    /// The file function `i` is defined in.
    pub fn file_of(&self, i: usize) -> &SourceFile {
        &self.files[&self.graph.fns[i].file]
    }

    /// Is `code` allowed at `line` of function `i` ([`SourceFile::allowed`])?
    pub fn allowed(&self, code: &str, i: usize, line: usize) -> bool {
        self.file_of(i).allowed(code, line, self.graph.fns[i].line)
    }

    /// Every masked body line of function `i` (1-based), with the
    /// signature clipped off the body-open line.
    pub fn body_lines(&self, i: usize) -> impl Iterator<Item = (usize, &str)> {
        let file = self.file_of(i);
        let body = self.graph.fns[i].body;
        (body.open_line..=body.end_line).map(move |lineno| {
            let full = file.masked_line(lineno);
            let seg = if lineno == body.open_line {
                full.get(body.open_col..).unwrap_or("")
            } else {
                full
            };
            (lineno, seg)
        })
    }

    /// Call edges out of function `i`, grouped by call line.
    pub fn calls_by_line(&self, i: usize) -> BTreeMap<usize, Vec<usize>> {
        let mut calls_at: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(v, line) in &self.graph.out[i] {
            calls_at.entry(line).or_default().push(v);
        }
        calls_at
    }
}

// ---------------------------------------------------------------------------
// The pass table
// ---------------------------------------------------------------------------

/// One source-tree pass: a subcommand name, the codes it owns, the
/// files it reads, and a function over the workspace.
pub struct Pass {
    /// The `mp-lint <name>` subcommand.
    pub name: &'static str,
    /// The first letters of the codes it reports (`"SR"` = `S0xx` and
    /// `R0xx`).
    pub codes: &'static str,
    /// The files it reads.
    pub scope: &'static Scope,
    /// The pass, with the Materials Project defaults.
    pub run: fn(&Workspace) -> Vec<Diagnostic>,
}

/// Every source-tree pass, in `mp-lint all` envelope order. The CLI's
/// subcommands, its usage text and `all` are this table.
pub const PASSES: &[Pass] = &[
    Pass {
        name: "concurrency",
        codes: "L",
        scope: &Scope::OUTSIDE_FACADE,
        run: crate::concurrency::pass,
    },
    Pass {
        name: "perf",
        codes: "P",
        scope: &Scope::TREE,
        run: crate::perf::pass,
    },
    Pass {
        name: "flow",
        codes: "SR",
        scope: &Scope::GRAPH,
        run: crate::flow::pass,
    },
    Pass {
        name: "hotpath",
        codes: "H",
        scope: &Scope::GRAPH,
        run: crate::hotpath::pass,
    },
    Pass {
        name: "effects",
        codes: "E",
        scope: &Scope::GRAPH,
        run: crate::effects::pass,
    },
    Pass {
        name: "order",
        codes: "O",
        scope: &Scope::GRAPH,
        run: crate::order::pass,
    },
];

/// Build a fixture workspace from in-memory files; `deps` lists each
/// crate's in-workspace dependencies (a crate may always call itself).
#[cfg(test)]
pub(crate) fn workspace_of(files: &[(&str, &str)], deps: &[(&str, &[&str])]) -> Workspace {
    let deps = deps
        .iter()
        .map(|(k, vs)| {
            (
                (*k).to_string(),
                vs.iter().map(|v| (*v).to_string()).collect(),
            )
        })
        .collect();
    let sources = files
        .iter()
        .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
        .collect();
    Workspace::from_sources(sources, &deps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::{analyze_effects, EffectConfig};
    use crate::flow::{analyze_panic_reach, FlowConfig};
    use crate::hotpath::{analyze_hotpath, HotConfig};
    use crate::order::{analyze_order, OrderConfig};

    /// One site per family, as the pieces the allow forms are built of.
    struct Site {
        code: &'static str,
        unjustified: &'static str,
        mark: &'static str,
        params: &'static str,
        /// Body text that must precede the site on an earlier line.
        setup: &'static str,
        site: &'static str,
        run: fn(&Workspace) -> Vec<Diagnostic>,
    }

    const SITES: &[Site] = &[
        Site {
            code: "R002",
            unjustified: "R003",
            mark: ALLOW_MARKS[1],
            params: "xs: &[u8]",
            setup: "",
            site: "let _ = xs[0];",
            run: |ws| {
                let config = FlowConfig {
                    sources: Vec::new(),
                    sanitizers: Vec::new(),
                    sinks: Vec::new(),
                    roots_crate: "a".to_string(),
                };
                analyze_panic_reach(ws, &config)
            },
        },
        Site {
            code: "H001",
            unjustified: "H006",
            mark: ALLOW_MARKS[0],
            params: "d: &Value",
            setup: "",
            site: concat!("let _ = d", ".clo", "ne();"),
            run: |ws| {
                let config = HotConfig {
                    driver_roots: Vec::new(),
                    per_doc_roots: FnRef::list(&["site"]),
                };
                analyze_hotpath(ws, &config)
            },
        },
        Site {
            code: "E003",
            unjustified: "E006",
            mark: ALLOW_MARKS[0],
            params: "s: &S",
            setup: concat!("let g = s.state", ".lo", "ck();"),
            site: concat!("let _ = std::", "fs::write(\"x\", b\"y\");"),
            run: |ws| {
                let config = EffectConfig {
                    mutation_fns: Vec::new(),
                    bump_fns: Vec::new(),
                };
                analyze_effects(ws, &config)
            },
        },
        Site {
            code: "O004",
            unjustified: "O006",
            mark: ALLOW_MARKS[0],
            params: "ds: &[u8], f: &File",
            setup: "",
            site: concat!("for _ in ds { let _ = f", ".sync_", "data(); }"),
            run: |ws| {
                let config = OrderConfig {
                    barrier_fns: Vec::new(),
                };
                analyze_order(ws, &config)
            },
        },
    ];

    /// The five places an allow may sit relative to its site.
    fn forms(s: &Site, allow: &str) -> [(&'static str, String); 5] {
        let Site {
            params,
            setup,
            site,
            ..
        } = s;
        // The site sits on the body-open line of the multi-line
        // signature unless it needs its setup on an earlier body line.
        let (open, rest) = if setup.is_empty() {
            (*site, String::new())
        } else {
            ("", format!("{setup}\n  {site}"))
        };
        [
            (
                "inline",
                format!("pub fn site({params}) {{\n  {setup}\n  {site} // {allow}\n}}\n"),
            ),
            (
                "line above",
                format!("pub fn site({params}) {{\n  {setup}\n  // {allow}\n  {site}\n}}\n"),
            ),
            (
                "signature line",
                format!("pub fn site({params}) {{ // {allow}\n  {setup}\n  {site}\n}}\n"),
            ),
            (
                "comment block above, attribute in between",
                format!(
                    "/// Docs.\n// {allow}\n/// More docs.\n#[inline]\n\
                     pub fn site({params}) {{\n  {setup}\n  {site}\n}}\n"
                ),
            ),
            (
                "body-open line of a multi-line signature",
                format!("// {allow}\npub fn site(\n  {params},\n) {{ {open}\n  {rest}\n}}\n"),
            ),
        ]
    }

    #[test]
    fn allow_forms_are_uniform_across_passes() {
        for s in SITES {
            let bare = format!("{}{})", s.mark, s.code);
            let justified = format!("{bare} — the invariant is established by the caller");
            let codes = |src: &str| -> Vec<&'static str> {
                let ws = workspace_of(&[("crates/a/src/lib.rs", src)], &[]);
                (s.run)(&ws).iter().map(|d| d.code).collect()
            };
            for ((form, with_justified), (_, with_bare)) in
                forms(s, &justified).iter().zip(&forms(s, &bare))
            {
                let unsuppressed = with_bare.replace(&bare, "no marker here");
                assert_eq!(
                    codes(&unsuppressed),
                    [s.code],
                    "{} {form}: site fires",
                    s.code
                );
                assert!(
                    codes(with_justified).is_empty(),
                    "{} {form}: justified allow must silence\n{with_justified}",
                    s.code
                );
                assert_eq!(
                    codes(with_bare),
                    [s.unjustified],
                    "{} {form}: bare allow is its own finding\n{with_bare}",
                    s.code
                );
            }
        }
    }

    #[test]
    fn either_marker_spelling_names_any_code() {
        let line = format!(
            "x // {}R001, H002) — checked non-empty above",
            ALLOW_MARKS[0]
        );
        let allow = Allow::parse(&line).expect("marker found");
        assert_eq!(allow.codes, ["R001", "H002"]);
        assert!(allow.justified);
        let short = format!("x // {}R001) — ok", ALLOW_MARKS[1]);
        assert!(!Allow::parse(&short).expect("marker found").justified);
        assert_eq!(Allow::parse("x // plain comment"), None);
    }

    #[test]
    fn scopes_are_what_the_passes_always_read() {
        for (path, tree, outside_facade, graph) in [
            ("crates/mapi/src/rest.rs", true, true, true),
            ("crates/mapi/src/bin/tool.rs", true, true, true),
            ("crates/mapi/src/fixtures/f.rs", true, true, false),
            ("crates/mapi/tests/api.rs", true, true, false),
            ("crates/sync/src/lib.rs", true, false, false),
            ("crates/bench/src/bin/serve/main.rs", true, true, false),
            ("src/main.rs", true, true, false),
            ("examples/demo.rs", true, true, false),
        ] {
            assert_eq!(Scope::TREE.includes(path), tree, "{path}");
            assert_eq!(
                Scope::OUTSIDE_FACADE.includes(path),
                outside_facade,
                "{path}"
            );
            assert_eq!(Scope::GRAPH.includes(path), graph, "{path}");
        }
    }

    /// Running the whole pass table over one scan of a tree yields
    /// exactly what each pass yields over a scan of its own scope.
    #[test]
    fn one_scan_equals_the_single_passes_run_alone() {
        let root = std::env::temp_dir().join(format!("mp-lint-core-{}", std::process::id()));
        let double_lock = "let a = self.m.lock();\nlet b = self.m.lock();\n";
        let deep_copy = concat!(
            "pub fn g(ds: &[Arc<u8>]) { let _: Vec<u8> = ds.iter()",
            ".map(",
            "|d| (*d)",
            ".clone",
            "()).collect(); }\n"
        );
        for (path, text) in [
            (
                "crates/mapi/Cargo.toml",
                "[dependencies]\nmp-a = { path = \"../a\" }\n",
            ),
            (
                "crates/mapi/src/lib.rs",
                "pub fn handle(xs: &[u8]) -> u8 { first(xs) }\n",
            ),
            (
                "crates/a/src/lib.rs",
                "pub fn first(xs: &[u8]) -> u8 { xs[0] }\n",
            ),
            ("crates/a/tests/t.rs", double_lock),
            (
                "crates/sync/src/lib.rs",
                &format!("{double_lock}{deep_copy}"),
            ),
            ("target/debug/build.rs", double_lock),
        ] {
            let file = root.join(path);
            std::fs::create_dir_all(file.parent().expect("fixture paths have a parent"))
                .and_then(|()| std::fs::write(&file, text))
                .expect("write fixture tree");
        }

        let scopes: Vec<&Scope> = PASSES.iter().map(|p| p.scope).collect();
        let ws = Workspace::scan(&root, &scopes).expect("scan fixture tree");
        let together: Vec<Diagnostic> = PASSES.iter().flat_map(|p| (p.run)(&ws)).collect();
        let alone: Vec<Diagnostic> = PASSES
            .iter()
            .flat_map(|p| (p.run)(&Workspace::scan(&root, &[p.scope]).expect("scan fixture tree")))
            .collect();
        let _ = std::fs::remove_dir_all(&root);

        assert_eq!(together, alone);
        for p in PASSES {
            let stray: Vec<_> = (p.run)(&ws)
                .into_iter()
                .filter(|d| !p.codes.contains(&d.code[..1]))
                .collect();
            assert!(
                stray.is_empty(),
                "{} reports outside {}: {stray:?}",
                p.name,
                p.codes
            );
        }
        let at = |code: &str| -> Vec<&str> {
            together
                .iter()
                .filter(|d| d.code == code)
                .map(|d| d.path.as_str())
                .collect()
        };
        // The facade crate is outside the L scope and inside the P
        // scope; build output is outside both; the graph crosses crates
        // along the manifest's dependency.
        assert_eq!(at("L004"), ["crates/a/tests/t.rs:2"]);
        assert_eq!(at("P002"), ["crates/sync/src/lib.rs:3"]);
        assert_eq!(at("R002"), ["crates/a/src/lib.rs:1"]);
    }
}
