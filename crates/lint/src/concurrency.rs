//! Concurrency lints (`L0xx`): lock guards held across other acquisitions.
//!
//! A line-based scan over workspace Rust sources. It does not parse the
//! language — like the kernel's `checkpatch`, it trades soundness for
//! zero build-time cost and catches the patterns that matter in this
//! codebase:
//!
//! * `L001` and `L002` are *retired*: a raw `Mutex`/`RwLock` outside the
//!   facade, and with it the `.lock().unwrap()` of a poisoning lock, are
//!   refused by clippy (`disallowed-types` in the root `clippy.toml`).
//! * `L003` (warning) — a `let`-bound guard is still live when another
//!   lock is acquired (directly, or via `Database::collection`, which
//!   takes the Database lock). Nesting sanctioned by the rank table is
//!   annotated `mp-lint: allow(L003)` at the site; everything else is a
//!   latent deadlock ingredient.
//! * `L004` (error) — the same receiver is locked twice while the first
//!   guard is still live: self-deadlock with a non-reentrant lock.
//!
//! Suppression: a `mp-lint: allow(LXXX)` comment on the offending line
//! or the line directly above it silences that code for that line. An
//! `allow(L003)` on a guard's *binding* line additionally covers every
//! acquisition made while that guard is live — for lock-then-operate
//! sections like `LaunchPad::claim_next` where the outer lock is the
//! whole point.
//!
//! The pattern literals below are assembled with `concat!` so this
//! file's own source never matches the patterns it searches for — the
//! workspace self-scan test would otherwise flag the scanner itself.

use crate::core::{Allow, Scope, Workspace};
use crate::diagnostics::Diagnostic;

const ACQ_LOCK: &str = concat!(".lock", "()");
const ACQ_READ: &str = concat!(".read", "()");
const ACQ_WRITE: &str = concat!(".write", "()");
const COLLECTION_CALL: &str = concat!(".collection", "(");

/// A live `let`-bound lock guard discovered by the scanner.
#[derive(Debug, Clone)]
struct Guard {
    /// Binding name (`accounts` in `let mut accounts = ...`).
    name: String,
    /// Receiver expression the guard came from (`self.accounts`).
    receiver: String,
    /// Brace depth the binding lives at; dies when depth drops below.
    depth: i32,
    /// 1-based line of the binding, for the diagnostic message.
    line: usize,
    /// `allow(L003)` on the binding line: nesting under this guard is
    /// sanctioned for its whole lifetime.
    allows_nesting: bool,
}

/// Scan one Rust source file; `path` is used verbatim in diagnostics.
pub fn analyze_source(path: &str, source: &str) -> Vec<Diagnostic> {
    scan(path, source.lines())
}

/// The pass-table entry: every file outside the facade crate.
pub fn pass(ws: &Workspace) -> Vec<Diagnostic> {
    ws.files(&Scope::OUTSIDE_FACADE)
        .flat_map(|(path, file)| scan(path, file.raw.iter().map(String::as_str)))
        .collect()
}

fn scan<'a>(path: &str, lines: impl Iterator<Item = &'a str>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i32 = 0;
    let mut allow_from_prev: Vec<String> = Vec::new();

    for (idx, raw_line) in lines.enumerate() {
        let lineno = idx + 1;
        let (code, comment) = split_comment(raw_line);
        let trimmed = code.trim();

        let mut allowed = std::mem::take(&mut allow_from_prev);
        allowed.extend(Allow::parse(comment).into_iter().flat_map(|a| a.codes));
        if trimmed.is_empty() {
            // Comment-only line: its allows apply to the next line.
            allow_from_prev = allowed;
            continue;
        }

        let opens = code.matches('{').count() as i32;
        let closes = code.matches('}').count() as i32;
        let new_depth = depth + opens - closes;
        guards.retain(|g| g.depth <= new_depth);

        if let Some(name) = dropped_guard(trimmed) {
            guards.retain(|g| g.name != name);
        }

        let at = |msg_line: usize| format!("{path}:{msg_line}");
        let is_allowed = |code: &str| allowed.iter().any(|a| a == code);

        // L003/L004: acquisitions while a guard is live.
        let mut bound_this_line: Option<Guard> = None;
        for acq in [ACQ_LOCK, ACQ_READ, ACQ_WRITE] {
            for pos in match_positions(code, acq) {
                let receiver = receiver_before(code, pos);
                if receiver.is_empty() {
                    continue;
                }
                if let Some(g) = guards.iter().find(|g| g.receiver == receiver) {
                    if !is_allowed("L004") {
                        diags.push(Diagnostic::error(
                            "L004",
                            at(lineno),
                            format!(
                                "`{receiver}` locked again while guard `{}` (line {}) is live: \
                                 self-deadlock",
                                g.name, g.line
                            ),
                        ));
                    }
                } else if let Some(g) = guards.first() {
                    if !is_allowed("L003") && !g.allows_nesting {
                        diags.push(
                            Diagnostic::warning(
                                "L003",
                                at(lineno),
                                format!(
                                    "guard `{}` (line {}) still held while `{receiver}` is locked",
                                    g.name, g.line
                                ),
                            )
                            .with_suggestion(
                                "scope the outer guard, or annotate `mp-lint: allow(L003)` if \
                                 the LockRank table sanctions this nesting",
                            ),
                        );
                    }
                }
                // Track new let-bound guards (not chained temporaries).
                if bound_this_line.is_none() {
                    if let Some((name, recv)) = guard_binding(trimmed, acq) {
                        if name != "_" && recv == receiver {
                            bound_this_line = Some(Guard {
                                name,
                                receiver: recv,
                                depth: new_depth,
                                line: lineno,
                                allows_nesting: is_allowed("L003"),
                            });
                        }
                    }
                }
            }
        }
        if let Some(g) = guards.first().filter(|g| {
            code.contains(COLLECTION_CALL)
                && !is_allowed("L003")
                && !g.allows_nesting
                && !trimmed.starts_with("fn ")
                && !trimmed.starts_with("pub fn ")
        }) {
            diags.push(
                Diagnostic::warning(
                    "L003",
                    at(lineno),
                    format!(
                        "guard `{}` (line {}) still held across Database::collection \
                         (takes the Database lock)",
                        g.name, g.line
                    ),
                )
                .with_suggestion(
                    "scope the guard, or annotate `mp-lint: allow(L003)` if the LockRank \
                     table sanctions this nesting",
                ),
            );
        }
        if let Some(g) = bound_this_line {
            guards.push(g);
        }
        depth = new_depth;
    }
    diags
}

/// Split a line at a `//` comment (string-literal-blind, good enough).
pub(crate) fn split_comment(line: &str) -> (&str, &str) {
    match line.find("//") {
        Some(i) => (&line[..i], &line[i..]),
        None => (line, ""),
    }
}

/// All start offsets of `pat` in `code`.
pub(crate) fn match_positions(code: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(i) = code[from..].find(pat) {
        out.push(from + i);
        from += i + pat.len();
    }
    out
}

/// The receiver expression ending at `pos` (`self.accounts` for
/// `self.accounts.write()`), walking back over path-ish characters.
pub(crate) fn receiver_before(code: &str, pos: usize) -> String {
    let bytes = code.as_bytes();
    let mut start = pos;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if c.is_alphanumeric() || matches!(c, '_' | '.' | ':') {
            start -= 1;
        } else {
            break;
        }
    }
    code[start..pos].trim_matches('.').to_string()
}

/// For `let [mut] name = <recv><acq>...;` return `(name, recv)`.
fn guard_binding(trimmed: &str, acq: &str) -> Option<(String, String)> {
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    let eq = trimmed.find('=')?;
    let after_eq = &trimmed[eq + 1..];
    let pos = after_eq.find(acq)?;
    // Guards only: the acquisition must end the expression (a chained
    // temporary like `x.lock().clone()` drops the guard immediately).
    let tail = after_eq[pos + acq.len()..].trim();
    if tail != ";" {
        return None;
    }
    Some((name, receiver_before(after_eq, pos)))
}

/// `drop(name)` / `drop(name);` — the guard named inside, if any.
fn dropped_guard(trimmed: &str) -> Option<String> {
    let rest = trimmed.strip_prefix("drop(")?;
    let inner = rest.strip_suffix(");").or_else(|| rest.strip_suffix(')'))?;
    let name = inner.trim();
    if name.chars().all(|c| c.is_alphanumeric() || c == '_') && !name.is_empty() {
        Some(name.to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::has_errors;
    use std::path::Path;

    #[test]
    fn guard_across_lock_is_l003() {
        let src = concat!(
            "let a = self.outer",
            ".write()",
            ";\n",
            "let b = self.inner",
            ".read()",
            ";\n",
        );
        let diags = analyze_source("x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "L003");
        assert!(diags[0].message.contains("`a`"), "{}", diags[0].message);
    }

    #[test]
    fn allow_comment_suppresses_l003() {
        let src = concat!(
            "let a = self.outer",
            ".write()",
            ";\n",
            "// mp-lint: allow(L003) — rank table sanctions outer -> inner\n",
            "let b = self.inner",
            ".read()",
            ";\n",
        );
        assert!(analyze_source("x.rs", src).is_empty());
    }

    #[test]
    fn allow_on_binding_covers_guard_lifetime() {
        let src = concat!(
            "// mp-lint: allow(L003) — outermost claim lock\n",
            "let a = self.claim",
            ".lock()",
            ";\n",
            "let b = db",
            ".collection(",
            "\"fw\");\n",
            "let c = self.inner",
            ".read()",
            ";\n",
        );
        assert!(analyze_source("x.rs", src).is_empty());
    }

    #[test]
    fn scoped_guard_does_not_leak_into_sibling_scope() {
        let src = concat!(
            "{\n",
            "    let a = self.outer",
            ".write()",
            ";\n",
            "}\n",
            "let b = self.inner",
            ".read()",
            ";\n",
        );
        assert!(analyze_source("x.rs", src).is_empty());
    }

    #[test]
    fn explicit_drop_ends_liveness() {
        let src = concat!(
            "let a = self.outer",
            ".write()",
            ";\n",
            "drop(a);\n",
            "let b = self.inner",
            ".read()",
            ";\n",
        );
        assert!(analyze_source("x.rs", src).is_empty());
    }

    #[test]
    fn double_lock_same_receiver_is_l004() {
        let src = concat!(
            "let a = self.state",
            ".lock()",
            ";\n",
            "let b = self.state",
            ".lock()",
            ";\n",
        );
        let diags = analyze_source("x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "L004");
        assert!(has_errors(&diags));
    }

    #[test]
    fn chained_temporary_is_not_a_guard() {
        let src = concat!(
            "let n = self.entries",
            ".lock()",
            ".len();\n",
            "let b = self.inner",
            ".read()",
            ";\n",
        );
        assert!(analyze_source("x.rs", src).is_empty());
    }

    #[test]
    fn collection_call_under_guard_is_l003() {
        let src = concat!(
            "let a = self.stats",
            ".lock()",
            ";\n",
            "let c = db",
            ".collection(",
            "\"tasks\");\n",
        );
        let diags = analyze_source("x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "L003");
        assert!(diags[0].message.contains("Database::collection"));
    }

    #[test]
    fn workspace_is_l0xx_clean() {
        // The acceptance gate: the whole workspace reports zero L0xx
        // findings (warnings included). Sanctioned nesting is annotated
        // at the site.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = Workspace::scan(&root, &[&Scope::OUTSIDE_FACADE]).expect("scan workspace");
        let diags = pass(&ws);
        assert!(
            diags.is_empty(),
            "workspace L0xx findings:\n{}",
            crate::diagnostics::render(&diags)
        );
    }
}
