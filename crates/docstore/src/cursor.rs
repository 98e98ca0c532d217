//! Find options: sort, skip, limit, projection — the cursor modifiers the
//! web UI and workflow engine use for paging and field selection.
//!
//! [`FindOptions`] is the *spec*: plain dotted-path strings, built once per
//! request. The read path never applies it directly — it calls
//! [`FindOptions::compile`] to get a [`CompiledFindOptions`] whose sort keys
//! and projection paths are pre-split ([`PathSeg`]) so the per-document work
//! is pure traversal, the same once-per-query treatment
//! `Filter::compile` gives predicates. The uncompiled
//! [`FindOptions::compare`]/[`FindOptions::project_doc`] survive as the
//! naive reference implementations the property tests diff against.

use crate::value::{
    cmp_values, compile_path, get_path, get_path_segs, set_path, set_path_segs, PathSeg,
};
use serde_json::{Map, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;

/// Sort direction for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    Asc,
    Desc,
}

/// Options applied to a `find`.
#[derive(Debug, Clone, Default)]
pub struct FindOptions {
    /// (path, direction) pairs applied in order.
    pub sort: Vec<(String, SortDir)>,
    /// Documents to skip from the start of the result.
    pub skip: usize,
    /// Maximum documents to return (`None` = unlimited).
    pub limit: Option<usize>,
    /// Projection: include-list of paths. `_id` is always included.
    pub projection: Option<Vec<String>>,
}

impl FindOptions {
    /// No sort, skip, limit or projection.
    pub fn all() -> Self {
        Self::default()
    }

    /// Builder: add a sort key.
    pub fn sort_by(mut self, path: impl Into<String>, dir: SortDir) -> Self {
        self.sort.push((path.into(), dir));
        self
    }

    /// Builder: set skip.
    pub fn skip(mut self, n: usize) -> Self {
        self.skip = n;
        self
    }

    /// Builder: set limit.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Builder: project to these paths.
    pub fn project(mut self, paths: &[&str]) -> Self {
        self.projection = Some(paths.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Pre-split every sort key and projection path so applying the
    /// options costs no string work per document. Call once per query.
    pub fn compile(&self) -> CompiledFindOptions {
        CompiledFindOptions {
            sort: self
                .sort
                .iter()
                .map(|(path, dir)| (compile_path(path), *dir))
                .collect(),
            skip: self.skip,
            limit: self.limit,
            projection: self.projection.as_deref().map(CompiledProjection::compile),
        }
    }

    /// Naive reference: apply sort/skip/limit by re-splitting each sort
    /// key per comparison. The read path uses
    /// [`CompiledFindOptions::apply_order`]; this stays as the oracle the
    /// property tests compare against. Generic over ownership so it sorts
    /// owned `Vec<Value>` and shared [`crate::value::Docs`] alike.
    pub fn apply_order<D: Borrow<Value>>(&self, docs: &mut Vec<D>) {
        if !self.sort.is_empty() {
            docs.sort_by(|a, b| self.compare(a.borrow(), b.borrow()));
        }
        if self.skip > 0 {
            let n = self.skip.min(docs.len());
            docs.drain(..n);
        }
        if let Some(limit) = self.limit {
            docs.truncate(limit);
        }
    }

    /// Naive reference comparator implied by the sort spec (missing
    /// fields sort first, like MongoDB's null-first ordering). The read
    /// path uses [`CompiledFindOptions::cmp_docs`].
    pub fn compare(&self, a: &Value, b: &Value) -> Ordering {
        for (path, dir) in &self.sort {
            let va = get_path(a, path).unwrap_or(&Value::Null);
            let vb = get_path(b, path).unwrap_or(&Value::Null);
            let c = cmp_values(va, vb);
            let c = match dir {
                SortDir::Asc => c,
                SortDir::Desc => c.reverse(),
            };
            if c != Ordering::Equal {
                return c;
            }
        }
        Ordering::Equal
    }

    /// Naive reference projection: `get_path` + `set_path` per path per
    /// document, re-splitting every dotted path each time. The read path
    /// uses [`CompiledProjection::project_one`]; this stays as the oracle
    /// the property tests compare against.
    pub fn project_doc(&self, doc: &Value) -> Value {
        match &self.projection {
            None => doc.clone(),
            Some(paths) => {
                let mut out = Value::Object(Map::new());
                if let Some(id) = doc.get("_id") {
                    let _ = set_path(&mut out, "_id", id.clone());
                }
                for p in paths {
                    if let Some(v) = get_path(doc, p) {
                        let _ = set_path(&mut out, p, v.clone());
                    }
                }
                out
            }
        }
    }
}

/// [`FindOptions`] after one-time compilation: sort keys and projection
/// paths are pre-split, so the per-document cost is map traversal plus the
/// clones that materialize the output — no string splitting, no numeric
/// re-parsing, no intermediate-path bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct CompiledFindOptions {
    sort: Vec<(Vec<PathSeg>, SortDir)>,
    skip: usize,
    limit: Option<usize>,
    projection: Option<CompiledProjection>,
}

impl CompiledFindOptions {
    /// The compiled projection, if the spec had one. The read path uses
    /// this to decide whether result documents need materializing at all
    /// (no projection ⇒ the matched `Arc`s are returned as-is).
    pub fn projection(&self) -> Option<&CompiledProjection> {
        self.projection.as_ref()
    }

    /// True when sorting is requested.
    pub fn has_sort(&self) -> bool {
        !self.sort.is_empty()
    }

    /// Number of leading matches to drop.
    pub fn skip(&self) -> usize {
        self.skip
    }

    /// Result-window bound, if any.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// Apply sort/skip/limit using the pre-split sort keys. Result order
    /// is identical to the naive [`FindOptions::apply_order`].
    pub fn apply_order<D: Borrow<Value>>(&self, docs: &mut Vec<D>) {
        if !self.sort.is_empty() {
            docs.sort_by(|a, b| self.cmp_docs(a.borrow(), b.borrow()));
        }
        if self.skip > 0 {
            let n = self.skip.min(docs.len());
            docs.drain(..n);
        }
        if let Some(limit) = self.limit {
            docs.truncate(limit);
        }
    }

    /// Compiled comparator: same ordering as [`FindOptions::compare`]
    /// (missing fields sort first) over pre-split key paths.
    pub fn cmp_docs(&self, a: &Value, b: &Value) -> Ordering {
        for (segs, dir) in &self.sort {
            let va = get_path_segs(a, segs).unwrap_or(&Value::Null);
            let vb = get_path_segs(b, segs).unwrap_or(&Value::Null);
            let c = cmp_values(va, vb);
            let c = match dir {
                SortDir::Asc => c,
                SortDir::Desc => c.reverse(),
            };
            if c != Ordering::Equal {
                return c;
            }
        }
        Ordering::Equal
    }
}

/// An include-projection compiled once per query.
///
/// Two strategies, chosen at compile time:
///
/// * **Plan walk** (the common case): when no path contains a numeric
///   segment, the paths form a prefix trie that is walked in lockstep
///   with the document, emitting the output object directly. One pass
///   over the trie per document; no path re-resolution, no
///   intermediate-container bookkeeping.
/// * **Sequential fallback**: paths with array indices keep `set_path`'s
///   order-sensitive array-creation semantics, so they replay the naive
///   algorithm over pre-split segments ([`set_path_segs`]).
///
/// Both produce output identical to the naive
/// [`FindOptions::project_doc`]; the property tests enforce this.
#[derive(Debug, Clone)]
pub struct CompiledProjection {
    /// Pre-split paths in application order, `_id` first.
    paths: Vec<Vec<PathSeg>>,
    /// Prefix trie over `paths`; `None` forces the sequential fallback.
    plan: Option<ProjNode>,
}

/// One node of the projection trie.
#[derive(Debug, Clone, Default)]
struct ProjNode {
    /// Child key → subtree, in first-seen order.
    children: Vec<(String, ProjNode)>,
    /// A projection path terminates here: include the whole subtree.
    take_all: bool,
}

impl CompiledProjection {
    /// Compile an include-list of dotted paths (`_id` is always added).
    pub fn compile<S: AsRef<str>>(paths: &[S]) -> Self {
        let mut all: Vec<Vec<PathSeg>> = Vec::with_capacity(paths.len() + 1);
        all.push(compile_path("_id"));
        all.extend(paths.iter().map(|p| compile_path(p.as_ref())));
        let plan = build_plan(&all);
        CompiledProjection { paths: all, plan }
    }

    /// Project one document. Output is identical to the naive
    /// [`FindOptions::project_doc`] for the same paths.
    pub fn project_one(&self, doc: &Value) -> Value {
        match &self.plan {
            Some(root) => {
                // mp-lint: allow(H002) — the output object is the query result being materialized, not reusable scratch.
                let mut out = Map::with_capacity(root.children.len());
                if let Value::Object(m) = doc {
                    for (key, child) in &root.children {
                        if let Some(v) = m.get(key) {
                            if let Some(pv) = project_node(v, child) {
                                out.insert_str(key, pv);
                            }
                        }
                    }
                }
                Value::Object(out)
            }
            None => {
                // mp-lint: allow(H002) — fallback output object: result materialization, not scratch.
                let mut out = Value::Object(Map::new());
                for segs in &self.paths {
                    if let Some(v) = get_path_segs(doc, segs) {
                        // mp-lint: allow(H001) — copying the projected value into the output is the product of projection.
                        let _ = set_path_segs(&mut out, segs, v.clone());
                    }
                }
                out
            }
        }
    }
}

/// Build the trie plan, or `None` when a path addresses array elements
/// (numeric segments make `set_path` create arrays and are order-
/// sensitive when mixed with object keys, so those shapes replay the
/// sequential algorithm instead).
fn build_plan(paths: &[Vec<PathSeg>]) -> Option<ProjNode> {
    if paths
        .iter()
        .any(|segs| segs.iter().any(|s| s.index.is_some()))
    {
        return None;
    }
    let mut root = ProjNode::default();
    for segs in paths {
        // Empty paths are no-ops in the naive algorithm (`set_path`
        // rejects them); skip them here too.
        if segs.is_empty() {
            continue;
        }
        let mut node = &mut root;
        for seg in segs {
            let pos = match node.children.iter().position(|(k, _)| *k == seg.key) {
                Some(p) => p,
                None => {
                    node.children.push((seg.key.clone(), ProjNode::default()));
                    node.children.len() - 1
                }
            };
            // mp-flow: allow(R002) — `pos` is either a found position or `len - 1` of the element pushed on the line above; both are in bounds.
            node = &mut node.children[pos].1;
        }
        node.take_all = true;
    }
    Some(root)
}

/// Walk one trie node against the matching document subtree. `None`
/// means nothing under this node resolved, so (like the naive
/// algorithm, which only writes resolved paths) no output entry is
/// created at all.
fn project_node(v: &Value, node: &ProjNode) -> Option<Value> {
    if node.take_all {
        // mp-lint: allow(H001) — the projected subtree is copied out by definition of projection.
        return Some(v.clone());
    }
    let Value::Object(m) = v else { return None };
    // mp-lint: allow(H002) — nested output object under construction, not reusable scratch.
    let mut out = Map::with_capacity(node.children.len());
    for (key, child) in &node.children {
        if let Some(cv) = m.get(key) {
            if let Some(pv) = project_node(cv, child) {
                out.insert_str(key, pv);
            }
        }
    }
    if out.is_empty() {
        None
    } else {
        Some(Value::Object(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn docs() -> Vec<Value> {
        vec![
            json!({"_id": 1, "n": 30, "s": "b"}),
            json!({"_id": 2, "n": 10, "s": "c"}),
            json!({"_id": 3, "n": 20, "s": "a"}),
            json!({"_id": 4, "n": 20, "s": "d"}),
        ]
    }

    #[test]
    fn sort_asc_desc() {
        let mut d = docs();
        FindOptions::all()
            .sort_by("n", SortDir::Asc)
            .apply_order(&mut d);
        let ns: Vec<i64> = d.iter().map(|x| x["n"].as_i64().unwrap()).collect();
        assert_eq!(ns, vec![10, 20, 20, 30]);

        let mut d = docs();
        FindOptions::all()
            .sort_by("n", SortDir::Desc)
            .apply_order(&mut d);
        let ns: Vec<i64> = d.iter().map(|x| x["n"].as_i64().unwrap()).collect();
        assert_eq!(ns, vec![30, 20, 20, 10]);
    }

    #[test]
    fn compound_sort_breaks_ties() {
        let mut d = docs();
        FindOptions::all()
            .sort_by("n", SortDir::Asc)
            .sort_by("s", SortDir::Desc)
            .apply_order(&mut d);
        let ids: Vec<i64> = d.iter().map(|x| x["_id"].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![2, 4, 3, 1]);
    }

    #[test]
    fn skip_limit() {
        let mut d = docs();
        FindOptions::all()
            .sort_by("n", SortDir::Asc)
            .skip(1)
            .limit(2)
            .apply_order(&mut d);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0]["n"], json!(20));
    }

    #[test]
    fn skip_past_end() {
        let mut d = docs();
        FindOptions::all().skip(99).apply_order(&mut d);
        assert!(d.is_empty());
    }

    #[test]
    fn missing_sort_field_sorts_first() {
        let mut d = vec![json!({"_id": 1, "n": 5}), json!({"_id": 2})];
        FindOptions::all()
            .sort_by("n", SortDir::Asc)
            .apply_order(&mut d);
        assert_eq!(d[0]["_id"], json!(2));
    }

    #[test]
    fn projection_keeps_id_and_nested() {
        let doc = json!({"_id": 7, "a": {"b": 1, "c": 2}, "d": 3});
        let opts = FindOptions::all().project(&["a.b"]);
        assert_eq!(opts.project_doc(&doc), json!({"_id": 7, "a": {"b": 1}}));
    }

    #[test]
    fn no_projection_returns_whole_doc() {
        let doc = json!({"_id": 7, "x": 1});
        assert_eq!(FindOptions::all().project_doc(&doc), doc);
    }

    #[test]
    fn compiled_order_matches_naive() {
        let opts = FindOptions::all()
            .sort_by("n", SortDir::Asc)
            .sort_by("s", SortDir::Desc)
            .skip(1)
            .limit(2);
        let copts = opts.compile();
        let mut naive = docs();
        let mut fast = docs();
        opts.apply_order(&mut naive);
        copts.apply_order(&mut fast);
        assert_eq!(naive, fast);
    }

    #[test]
    fn compiled_projection_plan_matches_naive() {
        let doc = json!({"_id": 7, "a": {"b": 1, "c": 2}, "d": 3, "e": {"f": {"g": 4}}});
        for paths in [
            vec!["a.b"],
            vec!["a.b", "a.c"],
            vec!["a", "a.b"],
            vec!["a.b", "a"],
            vec!["e.f.g", "missing", "a.zz"],
            vec!["d"],
        ] {
            let opts = FindOptions::all().project(&paths);
            let copts = opts.compile();
            let proj = copts.projection().expect("projection compiled");
            assert_eq!(
                opts.project_doc(&doc),
                proj.project_one(&doc),
                "paths {paths:?}"
            );
        }
    }

    #[test]
    fn compiled_projection_fallback_matches_naive() {
        // Numeric segments route through the sequential fallback, which
        // must replicate set_path's array-creation semantics exactly.
        let doc = json!({"_id": 1, "xs": [10, {"y": 20}, 30], "a": {"0": "objkey"}});
        for paths in [vec!["xs.1.y"], vec!["xs.2"], vec!["a.0"], vec!["xs.9"]] {
            let opts = FindOptions::all().project(&paths);
            let copts = opts.compile();
            let proj = copts.projection().expect("projection compiled");
            assert_eq!(
                opts.project_doc(&doc),
                proj.project_one(&doc),
                "paths {paths:?}"
            );
        }
    }

    #[test]
    fn compiled_cmp_handles_mixed_types() {
        let docs = vec![
            json!({"_id": 1, "k": "str"}),
            json!({"_id": 2, "k": 5}),
            json!({"_id": 3}),
            json!({"_id": 4, "k": [1, 2]}),
            json!({"_id": 5, "k": true}),
        ];
        let opts = FindOptions::all().sort_by("k", SortDir::Asc);
        let copts = opts.compile();
        let mut naive = docs.clone();
        let mut fast = docs;
        naive.sort_by(|a, b| opts.compare(a, b));
        fast.sort_by(|a, b| copts.cmp_docs(a, b));
        assert_eq!(naive, fast);
    }
}
