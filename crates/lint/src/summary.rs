//! Per-function source summaries for the mp-flow interprocedural passes.
//!
//! [`summarize_source`] reduces one Rust source file to a list of
//! [`FnSummary`]: every non-test function with its call sites, panic
//! sites (unwrap/expect/panic-family macros and index/slice
//! expressions), and lock acquisitions. The whole-workspace call graph
//! ([`crate::callgraph`]) and the taint / panic-reachability passes
//! ([`crate::flow`]) are built from nothing but these summaries.
//!
//! Unlike the line-based `L0xx`/`P00x` scanners, this pass first runs a
//! small lexer ([`mask_source`]) that blanks out string literals, char
//! literals, and comments while preserving byte offsets — the SVG
//! renderers interpolate `{`/`}` inside format strings and
//! `canonical_json` pushes brace *characters*, either of which would
//! corrupt naive brace-depth tracking. The masked text is what the
//! structural scan reads; the raw text is consulted only for allow
//! comments.
//!
//! Panic sites covered by an `R` allow (the one allow policy,
//! [`crate::core::SourceFile::allowed`]) are left out of the summary;
//! allows with no justification are recorded in
//! [`FnSummary::bad_allows`] and surfaced as `R003` by the flow pass.

use crate::core::SourceFile;

/// What kind of panic a site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()` on an Option/Result.
    Unwrap,
    /// `.expect("...")` on an Option/Result.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro,
    /// `xs[i]` / `&xs[a..b]` index or slice expression.
    Index,
}

impl PanicKind {
    /// Short display form used in diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "`.unwrap()`",
            PanicKind::Expect => "`.expect(...)`",
            PanicKind::PanicMacro => "panic-family macro",
            PanicKind::Index => "index/slice expression",
        }
    }

    /// The flow-pass code that gates this kind.
    pub fn code(self) -> &'static str {
        match self {
            PanicKind::Index => "R002",
            _ => "R001",
        }
    }
}

/// One potential panic inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// What can panic.
    pub kind: PanicKind,
    /// 1-based source line.
    pub line: usize,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `helper(...)` — a free function in scope.
    Plain(String),
    /// `recv.method(...)` — resolved by method name workspace-wide.
    Method(String),
    /// `Type::method(...)` / `module::func(...)` — last two path segments.
    Path(String, String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee as written.
    pub callee: Callee,
    /// 1-based source line.
    pub line: usize,
    /// Number of arguments when the argument list closes within the
    /// scanned window; `None` when unknown (keeps resolution
    /// conservative — unknown arity never filters an edge).
    pub args: Option<usize>,
}

/// One lock acquisition (`.lock()` / `.read()` / `.write()`).
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Receiver expression (`self.buckets`).
    pub receiver: String,
    /// Which acquisition method.
    pub op: &'static str,
    /// 1-based source line.
    pub line: usize,
}

/// Where a function's body sits: the line and column of its opening
/// `{` and the line of its closing `}` (the file's last line when it
/// never closes). The summarizer records it when its brace depth closes
/// the body; every pass reads bodies through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// 1-based line of the body's `{`.
    pub open_line: usize,
    /// Byte column of that `{` in the masked line.
    pub open_col: usize,
    /// 1-based line of the matching `}`.
    pub end_line: usize,
}

/// Summary of one function definition.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// Crate the file belongs to (directory under `crates/`, or `root`).
    pub crate_name: String,
    /// Path as given to [`summarize_source`].
    pub file: String,
    /// Surrounding `impl`/`trait` type, when any.
    pub impl_type: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Where the body opens and closes.
    pub body: Extent,
    /// `pub fn` (not `pub(crate)`) — the externally callable surface.
    pub is_pub: bool,
    /// Non-`self` parameter count, when the signature parsed cleanly.
    pub params: Option<usize>,
    /// Every call site in the body.
    pub calls: Vec<CallSite>,
    /// Every non-suppressed panic site in the body.
    pub panics: Vec<PanicSite>,
    /// Every lock acquisition in the body.
    pub locks: Vec<LockSite>,
    /// Lines of the function (signature block and body) carrying an `R`
    /// allow with no justification.
    pub bad_allows: Vec<usize>,
}

impl FnSummary {
    /// `crate::Type::name` / `crate::name` — how diagnostics render it.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}::{}", self.crate_name, t, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// Blank string literals, char literals, and comments with spaces,
/// preserving every byte offset and newline. The output is what all
/// structural scanning reads.
pub fn mask_source(src: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        Block(u32),
        Str,
        RawStr(usize),
    }
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match st {
            St::Code => {
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    st = St::LineComment;
                    out.push(b' ');
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::Block(1);
                    out.push(b' ');
                } else if c == b'"' {
                    st = St::Str;
                    out.push(b'"');
                } else if c == b'r' && !ident_byte(b.get(i.wrapping_sub(1)).copied()) {
                    // r"..." / r#"..."# raw string.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while b.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&b'"') {
                        out.push(b'r');
                        out.extend(std::iter::repeat_n(b'#', hashes));
                        out.push(b'"');
                        i = j;
                        st = St::RawStr(hashes);
                    } else {
                        out.push(c);
                    }
                } else if c == b'\'' {
                    // Char literal vs lifetime: 'x' / '\n' close with a
                    // quote; 'a (lifetime) does not.
                    if b.get(i + 1) == Some(&b'\\') {
                        // Escaped char literal: skip to the closing quote.
                        let mut j = i + 2;
                        while j < b.len() && b[j] != b'\'' {
                            j += 1;
                        }
                        out.push(b'\'');
                        out.extend(std::iter::repeat_n(b' ', j.saturating_sub(i + 1)));
                        if j < b.len() {
                            out.push(b'\'');
                        }
                        i = j;
                    } else if b.get(i + 2) == Some(&b'\'') {
                        out.extend_from_slice(b"'  ");
                        i += 2;
                    } else {
                        out.push(c); // lifetime
                    }
                } else {
                    out.push(c);
                }
            }
            St::LineComment => {
                if c == b'\n' {
                    st = St::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
            }
            St::Block(d) => {
                if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    out.extend_from_slice(b"  ");
                    i += 1;
                    st = if d == 1 { St::Code } else { St::Block(d - 1) };
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    out.extend_from_slice(b"  ");
                    i += 1;
                    st = St::Block(d + 1);
                } else {
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                }
            }
            St::Str => {
                if c == b'\\' {
                    out.extend_from_slice(b"  ");
                    i += 1;
                    if b.get(i) == Some(&b'\n') {
                        // Line-continuation escape: keep the newline.
                        out.pop();
                        out.push(b'\n');
                    }
                } else if c == b'"' {
                    out.push(b'"');
                    st = St::Code;
                } else {
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                }
            }
            St::RawStr(hashes) => {
                if c == b'"' {
                    let close = (0..hashes).all(|k| b.get(i + 1 + k) == Some(&b'#'));
                    if close {
                        out.push(b'"');
                        out.extend(std::iter::repeat_n(b'#', hashes));
                        i += hashes;
                        st = St::Code;
                    } else {
                        out.push(b' ');
                    }
                } else {
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                }
            }
        }
        i += 1;
    }
    String::from_utf8(out).unwrap_or_default()
}

fn ident_byte(c: Option<u8>) -> bool {
    c.is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Crate name from a workspace-relative path (`crates/mapi/src/rest.rs`
/// → `mapi`; `src/lib.rs` → `root`).
pub fn crate_of(path: &str) -> String {
    let norm = path.replace('\\', "/");
    let parts: Vec<&str> = norm.split('/').filter(|s| !s.is_empty()).collect();
    match parts.as_slice() {
        ["crates", name, ..] => (*name).to_string(),
        ["src", ..] => "root".to_string(),
        [_] => "root".to_string(),
        [first, ..] => (*first).to_string(),
        [] => "root".to_string(),
    }
}

/// Rust keywords that look like plain calls (`if (x)`, `matches!`-free).
const KEYWORDS: &[&str] = &[
    "if", "match", "while", "for", "loop", "return", "fn", "let", "as", "in", "move", "ref", "mut",
    "impl", "where", "unsafe", "dyn", "else", "use", "pub", "struct", "enum", "trait", "type",
    "const", "static", "break", "continue", "await", "async", "crate", "super", "self", "Self",
    "box",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Parse one source file into function summaries. Test code
/// (`#[cfg(test)]` modules, `#[test]` functions) is skipped entirely.
pub fn summarize_source(path: &str, source: &str) -> Vec<FnSummary> {
    summarize_file(path, &SourceFile::parse(source))
}

/// The structural scan's state while it walks one file.
struct Scan<'a> {
    path: &'a str,
    crate_name: String,
    file: &'a SourceFile,
    out: Vec<FnSummary>,
    /// Brace depth before the current line.
    depth: i64,
    /// (close_when_below, type name) for impl/trait blocks.
    impl_stack: Vec<(i64, String)>,
    /// Innermost-last open function indexes with their body depths.
    fn_stack: Vec<(i64, usize)>,
    /// Test scopes being skipped: pop when depth drops below.
    skip_stack: Vec<i64>,
}

impl Scan<'_> {
    /// The body of the (masked, body-less) signature `sig_text` opens at
    /// `open_col` of `lineno`: start the function — or, for test code,
    /// a skipped scope — and scan the rest of the line as body content.
    fn open_fn(
        &mut self,
        sig_text: &str,
        start_line: usize,
        is_test: bool,
        lineno: usize,
        open_col: usize,
    ) {
        if is_test {
            self.skip_stack.push(self.depth + 1);
            return;
        }
        let Some((name, is_pub, params)) = parse_sig(sig_text) else {
            return;
        };
        self.out.push(FnSummary {
            crate_name: self.crate_name.clone(),
            file: self.path.to_string(),
            impl_type: self.impl_stack.last().map(|(_, t)| t.clone()),
            name,
            line: start_line,
            body: Extent {
                open_line: lineno,
                open_col,
                end_line: self.file.masked.len(),
            },
            is_pub,
            params,
            calls: Vec::new(),
            panics: Vec::new(),
            locks: Vec::new(),
            bad_allows: Vec::new(),
        });
        self.fn_stack.push((self.depth + 1, self.out.len() - 1));
        self.scan_body(lineno, open_col);
    }

    /// Charge the sites on `lineno` from byte `seg_off` on to the
    /// innermost open function.
    fn scan_body(&mut self, lineno: usize, seg_off: usize) {
        if let Some(&(_, fi)) = self.fn_stack.last() {
            scan_body_segment(self.file, lineno, seg_off, &mut self.out[fi]);
        }
    }

    /// End of `lineno`: close every function and impl/trait block whose
    /// body the line's closing braces ended. A function is closed on the
    /// line its depth closes — a one-line function on its own line — so
    /// nothing after it is charged to it.
    fn end_line(&mut self, lineno: usize, depth_after: i64) {
        self.depth = depth_after;
        while let Some(&(_, fi)) = self.fn_stack.last().filter(|&&(d, _)| depth_after < d) {
            self.fn_stack.pop();
            self.out[fi].body.end_line = lineno;
        }
        while self
            .impl_stack
            .last()
            .is_some_and(|&(d, _)| depth_after < d)
        {
            self.impl_stack.pop();
        }
    }
}

/// Summarize one already split and masked file.
pub fn summarize_file(path: &str, file: &SourceFile) -> Vec<FnSummary> {
    let mut s = Scan {
        path,
        crate_name: crate_of(path),
        file,
        out: Vec::new(),
        depth: 0,
        impl_stack: Vec::new(),
        fn_stack: Vec::new(),
        skip_stack: Vec::new(),
    };
    let mut pending_attrs: Vec<String> = Vec::new();
    // Multiline signature accumulation: (text, start line, is_test).
    let mut sig: Option<(String, usize, bool)> = None;

    for (idx, mline) in file.masked.iter().enumerate() {
        let lineno = idx + 1;
        let trimmed = mline.trim();
        let line_opens = mline.matches('{').count() as i64;
        let line_closes = mline.matches('}').count() as i64;
        let depth_after = s.depth + line_opens - line_closes;

        'line: {
            if let Some(skip_below) = s.skip_stack.last().copied() {
                if depth_after < skip_below {
                    s.skip_stack.pop();
                }
                break 'line;
            }

            if let Some((mut text, start, is_test)) = sig.take() {
                // Continue a multiline signature until its body opens.
                text.push(' ');
                text.push_str(trimmed);
                if let Some(b) = text.find('{') {
                    let open_col = mline.find('{').unwrap_or(0);
                    s.open_fn(&text[..b], start, is_test, lineno, open_col);
                } else if !text.contains(';') {
                    // (`;` ends a trait method declaration / extern: no body.)
                    sig = Some((text, start, is_test));
                }
                break 'line;
            }

            if trimmed.starts_with("#[") {
                pending_attrs.push(trimmed.to_string());
                break 'line;
            }
            if trimmed.is_empty() {
                break 'line;
            }

            let attrs = std::mem::take(&mut pending_attrs);
            let cfg_test = attrs
                .iter()
                .any(|a| a.contains("cfg(test)") || a.contains("cfg(all(test"));
            let is_test_fn = cfg_test || attrs.iter().any(|a| a.starts_with("#[test]"));

            // Test module: skip its whole extent.
            if cfg_test && (trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ")) {
                if mline.contains('{') {
                    s.skip_stack.push(s.depth + 1);
                }
                break 'line;
            }

            // impl / trait block header.
            if trimmed.starts_with("impl")
                || trimmed.starts_with("trait ")
                || trimmed.starts_with("pub trait ")
            {
                if let Some(t) = impl_type_of(trimmed) {
                    if mline.contains('{') {
                        if cfg_test {
                            s.skip_stack.push(s.depth + 1);
                        } else {
                            s.impl_stack.push((s.depth + 1, t));
                        }
                        break 'line;
                    }
                }
            }

            // fn signature?
            if fn_keyword_pos(trimmed).is_some() {
                if let Some(b) = mline.find('{') {
                    let sig_text = trimmed.split('{').next().unwrap_or(trimmed);
                    s.open_fn(sig_text, lineno, is_test_fn, lineno, b);
                } else if !trimmed.contains(';') {
                    // (`;` is a declaration only.)
                    sig = Some((trimmed.to_string(), lineno, is_test_fn));
                }
                break 'line;
            }

            // Ordinary body line.
            s.scan_body(lineno, 0);
        }
        s.end_line(lineno, depth_after);
    }

    for f in &mut s.out {
        let span = file.block_start(f.line)..=f.body.end_line;
        f.bad_allows = file.unjustified(span, 'R');
    }
    s.out
}

/// Position of the `fn ` keyword when the line is a function signature
/// (possibly behind `pub` / `async` / `const` / `unsafe` qualifiers).
fn fn_keyword_pos(trimmed: &str) -> Option<usize> {
    let mut rest = trimmed;
    let mut offset = 0;
    loop {
        if rest.starts_with("fn ") {
            return Some(offset);
        }
        let qualifiers = ["pub", "async", "const", "unsafe", "extern"];
        let mut advanced = false;
        for q in qualifiers {
            if let Some(r) = rest.strip_prefix(q) {
                // `pub(crate)` / `pub(super)` visibility scope.
                let r = if q == "pub" && r.starts_with('(') {
                    match r.find(')') {
                        Some(p) => &r[p + 1..],
                        None => return None,
                    }
                } else {
                    r
                };
                let r2 = r.trim_start();
                offset += rest.len() - r2.len();
                rest = r2;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return None;
        }
    }
}

/// The type an `impl`/`trait` header introduces.
fn impl_type_of(trimmed: &str) -> Option<String> {
    let mut rest = trimmed;
    for p in ["impl", "pub trait", "trait"] {
        if let Some(r) = rest.strip_prefix(p) {
            rest = r;
            break;
        }
    }
    // Skip generic parameters `<...>` (tolerating `->` inside bounds).
    let rest = skip_generics(rest.trim_start());
    // `Trait for Type` → the Type.
    let rest = match rest.find(" for ") {
        Some(i) => &rest[i + 5..],
        None => rest,
    };
    let name: String = rest
        .trim_start()
        .chars()
        .take_while(|&c| is_ident_char(c) || c == ':')
        .collect();
    let last = name.rsplit("::").next().unwrap_or("").to_string();
    if last.is_empty() {
        None
    } else {
        Some(last)
    }
}

fn skip_generics(s: &str) -> &str {
    if !s.starts_with('<') {
        return s;
    }
    let b = s.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'<' => depth += 1,
            b'>' => {
                if i > 0 && b[i - 1] == b'-' {
                    // `->` inside an Fn bound
                } else {
                    depth -= 1;
                    if depth == 0 {
                        return &s[i + 1..];
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    s
}

/// (name, is `pub fn`, non-`self` parameter count) from a masked,
/// body-less signature text.
fn parse_sig(sig_text: &str) -> Option<(String, bool, Option<usize>)> {
    let trimmed = sig_text.trim();
    let fp = fn_keyword_pos(trimmed)?;
    let after = &trimmed[fp + 3..];
    let name: String = after.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() {
        return None;
    }
    let is_pub = trimmed.starts_with("pub fn")
        || trimmed.starts_with("pub async fn")
        || trimmed.starts_with("pub const fn")
        || trimmed.starts_with("pub unsafe fn");
    // Parameter list: first `(` after the name (skipping generics).
    let after_name = skip_generics(after[name.len()..].trim_start());
    let params = after_name.strip_prefix('(').map(|plist| {
        let inner = match matching_paren(plist) {
            Some(end) => &plist[..end],
            None => plist,
        };
        let args = count_top_level_commas(inner);
        let has_self = inner
            .split(',')
            .next()
            .map(|first| {
                let f = first.trim();
                f == "self"
                    || f == "&self"
                    || f == "&mut self"
                    || f.starts_with("self:")
                    || f.starts_with("mut self")
                    || f.starts_with("&'") && f.ends_with("self")
            })
            .unwrap_or(false);
        args.saturating_sub(usize::from(has_self))
    });
    Some((name, is_pub, params))
}

/// Offset of the `)` matching an implicit `(` already consumed.
fn matching_paren(s: &str) -> Option<usize> {
    let mut depth = 1i32;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Top-level item count of a comma-separated list (0 for empty,
/// trailing comma tolerated).
fn count_top_level_commas(s: &str) -> usize {
    let t = s.trim().trim_end_matches(',').trim_end();
    if t.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut n = 1usize;
    let b = t.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'(' | b'[' | b'{' | b'<' => depth += 1,
            b'>' if i > 0 && b[i - 1] == b'-' => {}
            b')' | b']' | b'}' | b'>' => depth -= 1,
            b',' if depth == 0 => n += 1,
            _ => {}
        }
    }
    n
}

/// Scan the masked text of `lineno` from byte `seg_off` on for calls,
/// panics, indexes, and locks, charging them to `f`.
fn scan_body_segment(file: &SourceFile, lineno: usize, seg_off: usize, f: &mut FnSummary) {
    let mseg = file.masked_line(lineno).get(seg_off..).unwrap_or("");
    let fn_line = f.line;
    let is_allowed = |code: &str| file.allowed(code, lineno, fn_line);

    let bytes = mseg.as_bytes();

    // --- panic sites: .unwrap() / .expect( ---
    for (pat, kind) in [
        (".unwrap()", PanicKind::Unwrap),
        (".expect(", PanicKind::Expect),
    ] {
        let mut from = 0;
        while let Some(p) = mseg[from..].find(pat) {
            let pos = from + p;
            from = pos + pat.len();
            // `.expect(` must not match `.expect_err(` (it cannot: the
            // `(` differs), but `.unwrap()` must not match `.unwrap_or()`
            // (it cannot either: `_or` breaks the `()`). Direct push.
            if !is_allowed(kind.code()) {
                f.panics.push(PanicSite { kind, line: lineno });
            }
        }
    }
    // --- panic macros ---
    for m in PANIC_MACROS {
        let pat = format!("{m}!");
        let mut from = 0;
        while let Some(p) = mseg[from..].find(&pat) {
            let pos = from + p;
            from = pos + pat.len();
            if pos > 0 && ident_byte(Some(bytes[pos - 1])) {
                continue; // debug_unreachable! etc.
            }
            if !is_allowed("R001") {
                f.panics.push(PanicSite {
                    kind: PanicKind::PanicMacro,
                    line: lineno,
                });
            }
        }
    }
    // --- index/slice sites ---
    for (pos, c) in mseg.char_indices() {
        if c != '[' {
            continue;
        }
        let prev = mseg[..pos].chars().next_back();
        let indexable = prev.is_some_and(|p| is_ident_char(p) || p == ']' || p == ')');
        if !indexable {
            continue;
        }
        // `doc["key"]` — serde_json object lookup, non-panicking.
        let next = mseg[pos + 1..].chars().find(|c| !c.is_whitespace());
        if next == Some('"') {
            continue;
        }
        // Attribute-ish or empty `[]` (never panics).
        if next == Some(']') {
            continue;
        }
        // Full-range `[..]` (RangeFull) cannot panic.
        if let Some(close) = mseg[pos + 1..].find(']') {
            if mseg[pos + 1..pos + 1 + close].trim() == ".." {
                continue;
            }
        }
        if !is_allowed("R002") {
            f.panics.push(PanicSite {
                kind: PanicKind::Index,
                line: lineno,
            });
        }
    }
    // --- lock sites ---
    for op in ["lock", "read", "write"] {
        let pat = format!(".{op}()");
        let mut from = 0;
        while let Some(p) = mseg[from..].find(&pat) {
            let pos = from + p;
            from = pos + pat.len();
            let receiver = receiver_ending_at(mseg, pos);
            if !receiver.is_empty() {
                f.locks.push(LockSite {
                    receiver,
                    op: match op {
                        "lock" => "lock",
                        "read" => "read",
                        _ => "write",
                    },
                    line: lineno,
                });
            }
        }
    }
    // --- call sites ---
    let mut iter = mseg.char_indices().peekable();
    while let Some((pos, c)) = iter.next() {
        if !(c.is_alphabetic() || c == '_') {
            continue;
        }
        if pos > 0 && is_ident_char(mseg[..pos].chars().next_back().unwrap_or(' ')) {
            continue; // mid-identifier
        }
        // Collect the identifier.
        let ident: String = mseg[pos..]
            .chars()
            .take_while(|&c| is_ident_char(c))
            .collect();
        let after = pos + ident.len();
        // Advance the iterator past it.
        while iter.peek().is_some_and(|&(i, _)| i < after) {
            iter.next();
        }
        let mut rest = &mseg[after..];
        // Turbofish `::<T>` between name and `(`.
        if let Some(r) = rest.strip_prefix("::<") {
            match r.find('>') {
                Some(g) => rest = &r[g + 1..],
                None => continue,
            }
        }
        if !rest.starts_with('(') {
            continue;
        }
        if KEYWORDS.contains(&ident.as_str()) {
            continue;
        }
        let before = &mseg[..pos];
        let prev_char = before.trim_end().chars().next_back();
        // Macro invocation handled above; `name !(` is not a call.
        if rest.starts_with("(") && before.ends_with('!') {
            continue;
        }
        let args = call_args(
            &file.masked,
            lineno - 1,
            seg_off + after + (mseg[after..].len() - rest.len()),
        );
        let callee = if before.ends_with('.') {
            // Skip closure-taking adapters: first arg starts a closure.
            let inner = rest[1..].trim_start();
            if inner.starts_with('|') || inner.starts_with("move ") {
                continue;
            }
            Callee::Method(ident)
        } else if before.ends_with("::") {
            let qual = receiver_ending_at(mseg, pos.saturating_sub(2));
            let last = qual.rsplit("::").next().unwrap_or("").to_string();
            if last.is_empty() {
                continue;
            }
            Callee::Path(last, ident)
        } else if prev_char.is_some_and(|p| p == '.') {
            Callee::Method(ident)
        } else {
            // Uppercase-initial plain names are tuple constructors /
            // enum variants (Some, Ok, Vec), not workspace functions.
            if ident.chars().next().is_some_and(|c| c.is_uppercase()) {
                continue;
            }
            Callee::Plain(ident)
        };
        f.calls.push(CallSite {
            callee,
            line: lineno,
            args,
        });
    }
}

/// The dotted/path receiver expression ending at byte `pos`.
fn receiver_ending_at(s: &str, pos: usize) -> String {
    let bytes = s.as_bytes();
    let mut start = pos;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if is_ident_char(c) || c == '.' || c == ':' {
            start -= 1;
        } else {
            break;
        }
    }
    s[start..pos].trim_matches(['.', ':']).to_string()
}

/// Count arguments of the call whose `(` sits at `col` of line
/// `line_idx`, scanning up to 40 lines ahead in the masked text.
fn call_args(masked_lines: &[String], line_idx: usize, col: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut commas = 0usize;
    let mut any = false;
    // A depth-1 comma immediately before the closing `)` is a trailing
    // comma (idiomatic in multi-line calls), not an extra argument.
    let mut trailing = false;
    // Commas between the pipes of a closure argument (`|inner, doc|`)
    // separate its parameters, not the call's arguments. A pipe opens a
    // parameter list only at the start of an argument.
    let mut in_closure_params = false;
    let mut prev = '(';
    for (li, line) in masked_lines.iter().enumerate().skip(line_idx).take(40) {
        let seg: &str = if li == line_idx {
            if col >= line.len() {
                return None;
            }
            &line[col..]
        } else {
            line
        };
        for c in seg.chars() {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth -= 1;
                    if depth == 0 {
                        let args = if any { commas + 1 } else { 0 };
                        return Some(args.saturating_sub(usize::from(trailing)));
                    }
                }
                '|' if depth == 1 && (in_closure_params || matches!(prev, '(' | ',')) => {
                    in_closure_params = !in_closure_params;
                    any = true;
                    trailing = false;
                }
                ',' if depth == 1 && !in_closure_params => {
                    commas += 1;
                    trailing = true;
                }
                c if depth >= 1 && !c.is_whitespace() => {
                    any = true;
                    trailing = false;
                }
                _ => {}
            }
            if !c.is_whitespace() {
                prev = c;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_blanks_strings_and_comments() {
        let src = "let s = \"{ not a brace }\"; // { comment }\nlet c = '{';\n";
        let m = mask_source(src);
        assert!(!m.contains("not a brace"));
        assert!(!m.contains("comment"));
        assert_eq!(m.matches('{').count(), 0, "{m}");
        assert_eq!(m.len(), src.len(), "masking preserves byte offsets");
    }

    #[test]
    fn mask_handles_multiline_and_escaped_strings() {
        let src = "let s = \"line one \\\n  line {two}\";\nlet x = 1;\n";
        let m = mask_source(src);
        assert!(!m.contains("two"));
        assert!(m.contains("let x = 1;"), "{m}");
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn summary_captures_calls_and_panics() {
        let src = "\
pub fn handler(input: &str) -> usize {
    let v = helper(input);
    let n = v.first().unwrap();
    Filter::parse(input);
    *n
}
fn helper(s: &str) -> Vec<usize> { vec![s.len()] }
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        assert_eq!(fns.len(), 2, "{fns:?}");
        let h = &fns[0];
        assert_eq!(h.name, "handler");
        assert!(h.is_pub);
        assert_eq!(h.params, Some(1));
        assert!(h
            .calls
            .iter()
            .any(|c| c.callee == Callee::Plain("helper".into())));
        assert!(h
            .calls
            .iter()
            .any(|c| c.callee == Callee::Path("Filter".into(), "parse".into())));
        assert_eq!(h.panics.len(), 1);
        assert_eq!(h.panics[0].kind, PanicKind::Unwrap);
        assert!(!fns[1].is_pub);
    }

    #[test]
    fn multiline_call_trailing_comma_is_not_an_argument() {
        let src = "\
impl Store {
    fn save(&self, op: &Op) {
        self.commit(
            &[op.clone()],
            |db| db.apply(op),
        );
        self.commit(&[op.clone()], |db| db.apply(op));
    }
    fn commit(&self, ops: &[Op], f: impl FnOnce(&Db)) {}
}
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        let commits: Vec<_> = fns[0]
            .calls
            .iter()
            .filter(|c| c.callee == Callee::Method("commit".into()))
            .collect();
        assert_eq!(commits.len(), 2, "{:?}", fns[0].calls);
        assert!(
            commits.iter().all(|c| c.args == Some(2)),
            "trailing comma must not inflate arity: {commits:?}"
        );
    }

    #[test]
    fn closure_parameter_commas_are_not_arguments() {
        let src = "\
impl Coll {
    fn put(&self, doc: Doc) {
        self.commit(
            Some(doc),
            |_, doc| decide(doc),
            |inner, (id, doc)| inner.put(id, doc),
        );
        self.commit(None, || a | b, |x, y| x | y);
    }
    fn commit(&self, items: I, decide: D, apply: A) {}
}
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        let commits: Vec<_> = fns[0]
            .calls
            .iter()
            .filter(|c| c.callee == Callee::Method("commit".into()))
            .collect();
        assert_eq!(commits.len(), 2, "{:?}", fns[0].calls);
        assert!(
            commits.iter().all(|c| c.args == Some(3)),
            "closure parameter lists must not inflate arity: {commits:?}"
        );
    }

    #[test]
    fn impl_methods_get_their_type() {
        let src = "\
impl<'a> Engine<'a> {
    pub fn run(&self, q: &str) -> bool {
        self.check(q)
    }
    fn check(&self, q: &str) -> bool { !q.is_empty() }
}
impl fmt::Display for Engine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
}
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        assert_eq!(fns.len(), 3, "{fns:?}");
        assert_eq!(fns[0].impl_type.as_deref(), Some("Engine"));
        assert_eq!(fns[0].params, Some(1));
        assert_eq!(fns[2].impl_type.as_deref(), Some("Engine"));
        assert!(fns[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Method("check".into())));
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "\
pub fn real() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); }
}
#[test]
fn standalone() { y.unwrap(); }
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        assert_eq!(fns.len(), 1, "{fns:?}");
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn index_sites_detected_with_json_exemption() {
        let src = "\
fn f(xs: &[u8], doc: &Value) -> u8 {
    let a = xs[0];
    let b = &xs[1..3];
    let c = doc[\"key\"].clone();
    a + b[0]
}
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        let idx: Vec<_> = fns[0]
            .panics
            .iter()
            .filter(|p| p.kind == PanicKind::Index)
            .collect();
        assert_eq!(idx.len(), 3, "{:?}", fns[0].panics);
    }

    #[test]
    fn allow_with_justification_suppresses() {
        let src = "\
fn f(x: Option<u8>) -> u8 {
    // mp-flow: allow(R001) — invariant: caller checked is_some
    x.unwrap()
}
fn g(x: Option<u8>) -> u8 {
    x.unwrap() // mp-flow: allow(R001)
}
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        assert!(fns[0].panics.is_empty(), "{:?}", fns[0].panics);
        assert!(fns[0].bad_allows.is_empty());
        // g's allow has no justification: site suppressed? No — the
        // bad allow is recorded and the site stays suppressed pending
        // the R003 diagnostic that forces a justification.
        assert!(!fns[1].bad_allows.is_empty(), "{fns:?}");
    }

    #[test]
    fn fn_level_allow_covers_body() {
        let src = "\
fn dense(xs: &[f64]) -> f64 { // mp-flow: allow(R002) — bounds established above
    xs[0] + xs[1]
}
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        assert!(
            fns[0].panics.iter().all(|p| p.kind != PanicKind::Index),
            "{:?}",
            fns[0].panics
        );
    }

    #[test]
    fn range_full_index_is_not_a_panic_site() {
        let src = "\
fn shape(v: &Vec<u8>) -> usize {
    match v[..] {
        [a] => a as usize,
        _ => v[0] as usize,
    }
}
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        let idx: Vec<_> = fns[0]
            .panics
            .iter()
            .filter(|p| p.kind == PanicKind::Index)
            .collect();
        // Only `v[0]` counts; `v[..]` (RangeFull) cannot panic.
        assert_eq!(idx.len(), 1, "{:?}", fns[0].panics);
    }

    #[test]
    fn fn_level_allow_on_comment_above_signature_covers_body() {
        let src = "\
// mp-flow: allow(R002) — dense kernel, dimensions fixed by construction
fn dense(xs: &[f64]) -> f64 {
    xs[0] + xs[1]
}

fn uncovered(xs: &[f64]) -> f64 {
    xs[0]
}
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        assert!(
            fns[0].panics.iter().all(|p| p.kind != PanicKind::Index),
            "{:?}",
            fns[0].panics
        );
        assert!(fns[0].bad_allows.is_empty());
        // The allow is scoped to `dense`; the next fn is still flagged.
        assert!(fns[1].panics.iter().any(|p| p.kind == PanicKind::Index));
    }

    #[test]
    fn a_function_is_closed_on_the_line_its_body_closes() {
        let src = "\
pub fn a() -> u8 { 1 }
pub static T: u8 = TABLE[0];
static N: usize = helper();
fn helper() -> usize {
    0
}
static M: u8 = TABLE[1];
impl Marker for X {}
pub fn free() {}
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        assert_eq!(fns.len(), 3, "{fns:?}");
        // The lines after a one-line function are charged to nothing —
        // exactly like the line after a multi-line one.
        assert!(fns.iter().all(|f| f.panics.is_empty()), "{fns:?}");
        assert!(fns.iter().all(|f| f.calls.is_empty()), "{fns:?}");
        let ends: Vec<usize> = fns.iter().map(|f| f.body.end_line).collect();
        assert_eq!(ends, [1, 6, 9]);
        // A one-line impl block is closed on its line too.
        assert_eq!(fns[2].name, "free");
        assert_eq!(fns[2].impl_type, None);
    }

    #[test]
    fn body_extent_clips_a_multiline_signature() {
        let src = "\
impl T {
    pub fn go(
        &self,
        x: u8,
    ) -> u8 { x.max(
        1)
    }
}
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        let body = fns[0].body;
        assert_eq!((body.open_line, body.end_line), (5, 7));
        assert_eq!(
            &src.lines().nth(4).unwrap_or("")[body.open_col..],
            "{ x.max("
        );
    }

    #[test]
    fn multiline_signature_parses() {
        let src = "\
pub fn structured_query(
    &self,
    req: &Request,
    collection: &str,
) -> Response {
    self.handle(req)
}
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "structured_query");
        assert_eq!(fns[0].params, Some(2));
        assert!(fns[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Method("handle".into())));
    }

    #[test]
    fn closure_adapters_are_not_method_calls() {
        let src = "\
fn f(v: &[u8]) -> Option<&u8> {
    v.iter().find(|x| **x > 1)
}
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        assert!(
            !fns[0]
                .calls
                .iter()
                .any(|c| c.callee == Callee::Method("find".into())),
            "{:?}",
            fns[0].calls
        );
    }

    #[test]
    fn lock_sites_recorded() {
        let src = "\
fn f(&self) -> usize {
    let g = self.buckets.lock();
    g.len()
}
";
        let fns = summarize_source("crates/demo/src/lib.rs", src);
        assert_eq!(fns[0].locks.len(), 1);
        assert_eq!(fns[0].locks[0].receiver, "self.buckets");
        assert_eq!(fns[0].locks[0].op, "lock");
    }

    #[test]
    fn crate_name_derivation() {
        assert_eq!(crate_of("crates/mapi/src/rest.rs"), "mapi");
        assert_eq!(crate_of("src/lib.rs"), "root");
        assert_eq!(crate_of("examples/demo.rs"), "examples");
    }
}
