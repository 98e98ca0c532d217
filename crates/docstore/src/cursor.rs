//! Find options: sort, skip, limit, projection — the cursor modifiers the
//! web UI and workflow engine use for paging and field selection.
//!
//! [`FindOptions`] is the *spec*: plain dotted-path strings, built once per
//! request. It is never applied directly — [`FindOptions::compile`] gives
//! a [`CompiledFindOptions`] whose sort keys and projection paths are
//! pre-split ([`Path`]) so the per-document work is pure traversal, the
//! same once-per-query treatment `Filter::compile` gives predicates. The
//! store has one orderer and one projection; the property tests diff them
//! against the test-only `mp-model` crate, which shares no code with them.

use crate::value::{cmp_values, Path};
use serde_json::{FieldName, Map, Value};
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
                .map(|(path, dir)| (Path::new(path), *dir))
                .collect(),
            skip: self.skip,
            limit: self.limit,
            projection: self.projection.as_deref().map(CompiledProjection::compile),
        }
    }
}

/// [`FindOptions`] after one-time compilation: sort keys and projection
/// paths are pre-split, so the per-document cost is map traversal plus the
/// clones that materialize the output — no string splitting, no numeric
/// re-parsing, no intermediate-path bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct CompiledFindOptions {
    sort: Vec<(Path, SortDir)>,
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

    /// Apply sort/skip/limit using the pre-split sort keys (a stable
    /// sort: ties keep their input order).
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

    /// The comparator the sort spec implies, over pre-split key paths:
    /// key by key, [`cmp_values`] order, a missing field as `null` (so it
    /// sorts first ascending, like MongoDB's null-first ordering).
    pub fn cmp_docs(&self, a: &Value, b: &Value) -> Ordering {
        for (path, dir) in &self.sort {
            let va = path.get(a).unwrap_or(&Value::Null);
            let vb = path.get(b).unwrap_or(&Value::Null);
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
/// * **Sequential fallback**: paths with array indices keep `$set`'s
///   order-sensitive array-creation semantics, so they replay the
///   sequential algorithm — `_id`, then each path in order: read it
///   ([`Path::get`]), and where it resolves write it into the output
///   ([`Path::set`]).
///
/// Both produce the sequential algorithm's output byte for byte; the
/// property tests check it against `mp-model`.
#[derive(Debug, Clone)]
pub struct CompiledProjection {
    /// Pre-split paths in application order, `_id` first.
    paths: Vec<Path>,
    /// Prefix trie over `paths`; `None` forces the sequential fallback.
    plan: Option<ProjNode>,
}

/// One node of the projection trie.
#[derive(Debug, Clone, Default)]
struct ProjNode {
    /// Child field name → subtree, in first-seen order; each name
    /// resolved once, when the projection compiles.
    children: Vec<(FieldName, ProjNode)>,
    /// A projection path terminates here: include the whole subtree.
    take_all: bool,
}

impl CompiledProjection {
    /// Compile an include-list of dotted paths (`_id` is always added).
    pub fn compile<S: AsRef<str>>(paths: &[S]) -> Self {
        let mut all = Vec::with_capacity(paths.len() + 1);
        all.push(Path::new("_id"));
        all.extend(paths.iter().map(|p| Path::new(p.as_ref())));
        let plan = build_plan(&all);
        CompiledProjection { paths: all, plan }
    }

    /// Project one document: `_id` and every listed path that resolves,
    /// nested as in the document, in first-listed order.
    pub fn project_one(&self, doc: &Value) -> Value {
        match &self.plan {
            Some(root) => {
                // mp-lint: allow(H002) — the output object is the query result being materialized, not reusable scratch.
                let mut out = Map::with_capacity(root.children.len());
                if let Value::Object(m) = doc {
                    for (key, child) in &root.children {
                        if let Some(v) = m.get_field(key) {
                            if let Some(pv) = project_node(v, child) {
                                out.insert_field(key, pv);
                            }
                        }
                    }
                }
                Value::Object(out)
            }
            None => {
                // mp-lint: allow(H002) — fallback output object: result materialization, not scratch.
                let mut out = Value::Object(Map::new());
                for path in &self.paths {
                    if let Some(v) = path.get(doc) {
                        // mp-lint: allow(H001) — copying the projected value into the output is the product of projection.
                        let _ = path.set(&mut out, v.clone());
                    }
                }
                out
            }
        }
    }
}

/// Build the trie plan, or `None` when a path addresses array elements
/// (numeric segments make `$set` create arrays and are order-
/// sensitive when mixed with object keys, so those shapes replay the
/// sequential algorithm instead).
fn build_plan(paths: &[Path]) -> Option<ProjNode> {
    if paths
        .iter()
        .any(|path| path.segs().iter().any(|s| s.index.is_some()))
    {
        return None;
    }
    let mut root = ProjNode::default();
    for path in paths {
        // Empty paths are no-ops in the sequential algorithm
        // (`Path::set` rejects them); skip them here too.
        if path.segs().is_empty() {
            continue;
        }
        let mut node = &mut root;
        for seg in path.segs() {
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
/// means nothing under this node resolved, so (like the sequential
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
        if let Some(cv) = m.get_field(key) {
            if let Some(pv) = project_node(cv, child) {
                out.insert_field(key, pv);
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

    fn ordered(opts: FindOptions, mut d: Vec<Value>) -> Vec<Value> {
        opts.compile().apply_order(&mut d);
        d
    }

    fn project(paths: &[&str], doc: &Value) -> Value {
        CompiledProjection::compile(paths).project_one(doc)
    }

    #[test]
    fn sort_asc_desc() {
        let d = ordered(FindOptions::all().sort_by("n", SortDir::Asc), docs());
        let ns: Vec<i64> = d.iter().map(|x| x["n"].as_i64().unwrap()).collect();
        assert_eq!(ns, vec![10, 20, 20, 30]);

        let d = ordered(FindOptions::all().sort_by("n", SortDir::Desc), docs());
        let ns: Vec<i64> = d.iter().map(|x| x["n"].as_i64().unwrap()).collect();
        assert_eq!(ns, vec![30, 20, 20, 10]);
    }

    #[test]
    fn compound_sort_breaks_ties() {
        let opts = FindOptions::all()
            .sort_by("n", SortDir::Asc)
            .sort_by("s", SortDir::Desc);
        let d = ordered(opts, docs());
        let ids: Vec<i64> = d.iter().map(|x| x["_id"].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![2, 4, 3, 1]);
    }

    #[test]
    fn skip_limit() {
        let opts = FindOptions::all()
            .sort_by("n", SortDir::Asc)
            .skip(1)
            .limit(2);
        let d = ordered(opts, docs());
        assert_eq!(d.len(), 2);
        assert_eq!(d[0]["n"], json!(20));
    }

    #[test]
    fn skip_past_end() {
        assert!(ordered(FindOptions::all().skip(99), docs()).is_empty());
    }

    #[test]
    fn missing_sort_field_sorts_first() {
        let d = vec![json!({"_id": 1, "n": 5}), json!({"_id": 2})];
        let d = ordered(FindOptions::all().sort_by("n", SortDir::Asc), d);
        assert_eq!(d[0]["_id"], json!(2));
    }

    #[test]
    fn projection_keeps_id_and_nested() {
        let doc = json!({"_id": 7, "a": {"b": 1, "c": 2}, "d": 3});
        assert_eq!(project(&["a.b"], &doc), json!({"_id": 7, "a": {"b": 1}}));
        let opts = FindOptions::all().project(&["a.b"]).compile();
        assert!(opts.projection().is_some());
        assert!(FindOptions::all().compile().projection().is_none());
    }

    #[test]
    fn projection_plan_nests_in_first_listed_order() {
        let doc = json!({"_id": 7, "a": {"b": 1, "c": 2}, "d": 3, "e": {"f": {"g": 4}}});
        for (paths, want) in [
            (vec!["a.c", "a.b"], r#"{"_id":7,"a":{"c":2,"b":1}}"#),
            (vec!["a", "a.b"], r#"{"_id":7,"a":{"b":1,"c":2}}"#),
            (vec!["a.b", "a"], r#"{"_id":7,"a":{"b":1,"c":2}}"#),
            (
                vec!["e.f.g", "missing", "a.zz"],
                r#"{"_id":7,"e":{"f":{"g":4}}}"#,
            ),
            (vec!["d", "_id"], r#"{"_id":7,"d":3}"#),
        ] {
            assert_eq!(project(&paths, &doc).to_string(), want, "paths {paths:?}");
        }
    }

    #[test]
    fn projection_fallback_builds_arrays_as_set_path_does() {
        // Numeric segments route through the sequential fallback, which
        // writes each resolved path as `Path::set` does.
        let doc = json!({"_id": 1, "xs": [10, {"y": 20}, 30], "a": {"0": "objkey"}});
        for (paths, want) in [
            (vec!["xs.1.y"], json!({"_id": 1, "xs": [null, {"y": 20}]})),
            (vec!["xs.2"], json!({"_id": 1, "xs": [null, null, 30]})),
            (vec!["a.0"], json!({"_id": 1, "a": ["objkey"]})),
            (vec!["xs.9"], json!({"_id": 1})),
        ] {
            assert_eq!(project(&paths, &doc), want, "paths {paths:?}");
        }
    }

    #[test]
    fn cmp_docs_orders_mixed_types_by_bracket() {
        let docs = vec![
            json!({"_id": 1, "k": "str"}),
            json!({"_id": 2, "k": 5}),
            json!({"_id": 3}),
            json!({"_id": 4, "k": [1, 2]}),
            json!({"_id": 5, "k": true}),
            json!({"_id": 6, "k": {"a": 1}}),
            json!({"_id": 7, "k": null}),
        ];
        let d = ordered(FindOptions::all().sort_by("k", SortDir::Asc), docs);
        let ids: Vec<i64> = d.iter().map(|x| x["_id"].as_i64().unwrap()).collect();
        // Missing and null tie (input order kept), then number, string,
        // object, array, bool.
        assert_eq!(ids, vec![3, 7, 2, 1, 6, 4, 5]);
    }
}
