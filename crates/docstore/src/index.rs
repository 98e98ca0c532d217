//! Ordered secondary indexes on dotted field paths.
//!
//! An index maps each distinct value at a path to the set of document ids
//! holding it, using the BSON-like total order from [`crate::value`] so
//! that both equality and range queries can be accelerated. Array-valued
//! fields produce one entry per element (multikey indexes), which is what
//! makes queries like `{elements: "Li"}` fast.

use crate::error::{Result, StoreError};
use crate::value::{for_each_at_path, OrderedValue};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// Internal id assigned to each stored document.
pub type DocId = u64;

/// One secondary index.
#[derive(Debug, Clone)]
pub struct Index {
    /// Dotted field path this index covers.
    pub path: String,
    /// Reject two documents with the same indexed value?
    pub unique: bool,
    map: BTreeMap<OrderedValue, BTreeSet<DocId>>,
}

/// The keys a document exposes at an index path: one per array element
/// for multikey behaviour, or the single value itself, in path-walk
/// order. The walk allocates nothing; the vector and the key clones it
/// returns are the only allocations.
fn index_keys(doc: &Value, path: &str) -> Vec<OrderedValue> {
    let mut keys = Vec::new();
    for_each_key(doc, path, |key| keys.push(OrderedValue(key.clone())));
    keys
}

/// Visit the keys [`index_keys`] returns, in the same order, without
/// cloning them.
fn for_each_key(doc: &Value, path: &str, mut visit: impl FnMut(&Value)) {
    for_each_at_path(doc, path, &mut |v| match v {
        Value::Array(a) => a.iter().for_each(&mut visit),
        other => visit(other),
    });
}

/// One key of a bulk build: the key, the document exposing it, and its
/// place among that document's keys. Sorted, equal keys run in the
/// order one-by-one insertion would have met them.
pub(crate) type Entry = (OrderedValue, DocId, u32);

/// The entries of `docs`, numbered from `first`, for the keys each
/// exposes at `path`, sorted: one clone per key, cloned in one run.
/// (One pass per index, not one pass for all: with two indexes' keys
/// interleaved, freeing one index's before the other's leaves the
/// other's between them, and `tests/load_heap.rs` counted 148 holes.)
pub(crate) fn sorted_entries<'a>(
    first: DocId,
    docs: impl ExactSizeIterator<Item = &'a Value>,
    path: &str,
) -> Vec<Entry> {
    let mut entries = Vec::with_capacity(docs.len());
    for (id, doc) in (first..).zip(docs) {
        let mut at = 0;
        for_each_key(doc, path, |key| {
            entries.push((OrderedValue(key.clone()), id, at));
            at += 1;
        });
    }
    entries.sort_unstable();
    entries
}

/// In sorted entries, the first key that one-by-one insertion in
/// `DocId` order would have refused as taken: the lowest `(DocId,
/// place)` whose key a lower `DocId` already exposed. The first entry of
/// each run of equal keys holds that run's lowest id, so one pass finds
/// it — wherever the two entries sit in the run.
pub(crate) fn first_collision(sorted: &[Entry]) -> Option<&Entry> {
    let mut head = sorted.first()?;
    let mut first: Option<&Entry> = None;
    for entry in sorted {
        if entry.0 != head.0 {
            head = entry;
        } else if entry.1 != head.1 && first.is_none_or(|f| (entry.1, entry.2) < (f.1, f.2)) {
            first = Some(entry);
        }
    }
    first
}

/// The duplicate-key error naming `key` of the unique index on `path`.
pub(crate) fn unique_violation(path: &str, key: &Value) -> StoreError {
    StoreError::DuplicateKey(format!("unique index on '{path}' value {key}"))
}

impl Index {
    /// Create an empty index over `path`.
    pub fn new(path: impl Into<String>, unique: bool) -> Self {
        Index {
            path: path.into(),
            unique,
            map: BTreeMap::new(),
        }
    }

    /// The index over `path` holding `sorted`, entries ordered by `(key,
    /// DocId, place)`: each run of equal keys becomes one key — a clone
    /// of the first, which is the value one-by-one insertion would have
    /// kept (`1` or `1.0`) — and the set of its ids. The caller frees
    /// the sort keys afterwards, all together (DESIGN §10). Uniqueness
    /// is not checked here ([`first_collision`] is).
    pub(crate) fn built(path: String, unique: bool, sorted: &[Entry]) -> Index {
        let runs = || sorted.chunk_by(|a, b| a.0 == b.0);
        // Counted first, so the runs take one allocation and no freed
        // smaller one is left between the id sets the index keeps.
        let mut map = Vec::with_capacity(runs().count());
        for run in runs() {
            let mut entries = run.iter();
            if let Some((key, id, _)) = entries.next() {
                let mut ids = BTreeSet::from([*id]);
                ids.extend(entries.map(|(_, id, _)| *id));
                map.push((key.clone(), ids));
            }
        }
        Index {
            path,
            unique,
            map: map.into_iter().collect(),
        }
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.map.len()
    }

    /// Would inserting `doc` for `id` violate this index's uniqueness?
    /// `ignore` is an id whose existing entries should be disregarded
    /// (used when checking an update against the document's old self).
    pub fn check_unique(&self, id: DocId, doc: &Value, ignore: Option<DocId>) -> Result<()> {
        if !self.unique {
            return Ok(());
        }
        for k in index_keys(doc, &self.path) {
            if let Some(ids) = self.map.get(&k) {
                let conflict = ids
                    .iter()
                    .any(|&other| other != id && Some(other) != ignore);
                if conflict {
                    return Err(unique_violation(&self.path, &k.0));
                }
            }
        }
        Ok(())
    }

    /// Add `doc`'s entries. Fails (before mutating) on unique violation.
    pub fn insert(&mut self, id: DocId, doc: &Value) -> Result<()> {
        let keys = index_keys(doc, &self.path);
        if self.unique {
            for k in &keys {
                if let Some(ids) = self.map.get(k) {
                    if !ids.is_empty() && !ids.contains(&id) {
                        return Err(unique_violation(&self.path, &k.0));
                    }
                }
            }
        }
        for k in keys {
            self.map.entry(k).or_default().insert(id);
        }
        Ok(())
    }

    /// Remove `doc`'s entries.
    pub fn remove(&mut self, id: DocId, doc: &Value) {
        for key in index_keys(doc, &self.path) {
            if let Some(ids) = self.map.get_mut(&key) {
                ids.remove(&id);
                if ids.is_empty() {
                    self.map.remove(&key);
                }
            }
        }
    }

    /// Ids of documents whose indexed value equals `v`.
    pub fn lookup_eq(&self, v: &Value) -> Vec<DocId> {
        self.map
            .get(&OrderedValue(v.clone()))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Ids of documents whose indexed value is in any of `vs`.
    pub fn lookup_in(&self, vs: &[Value]) -> Vec<DocId> {
        let mut out = BTreeSet::new();
        for v in vs {
            if let Some(ids) = self.map.get(&OrderedValue(v.clone())) {
                out.extend(ids.iter().copied());
            }
        }
        out.into_iter().collect()
    }

    /// Ids of documents in the half-open/closed range.
    pub fn lookup_range(
        &self,
        lo: Option<&Value>,
        lo_incl: bool,
        hi: Option<&Value>,
        hi_incl: bool,
    ) -> Vec<DocId> {
        let lower: Bound<OrderedValue> = match lo {
            Some(v) if lo_incl => Bound::Included(OrderedValue(v.clone())),
            Some(v) => Bound::Excluded(OrderedValue(v.clone())),
            None => Bound::Unbounded,
        };
        let upper: Bound<OrderedValue> = match hi {
            Some(v) if hi_incl => Bound::Included(OrderedValue(v.clone())),
            Some(v) => Bound::Excluded(OrderedValue(v.clone())),
            None => Bound::Unbounded,
        };
        let mut out = BTreeSet::new();
        for (_, ids) in self.map.range((lower, upper)) {
            out.extend(ids.iter().copied());
        }
        out.into_iter().collect()
    }

    /// Number of ids an equality probe for `v` would return, without
    /// materializing them. Used by the cost-based planner.
    pub fn estimate_eq(&self, v: &Value) -> usize {
        self.map
            .get(&OrderedValue(v.clone()))
            .map(|s| s.len())
            .unwrap_or(0)
    }

    /// Upper bound on ids an `$in` probe over `vs` would return (sum of
    /// per-value set sizes; duplicates across multikey entries ignored).
    pub fn estimate_in(&self, vs: &[Value]) -> usize {
        vs.iter()
            .map(|v| {
                self.map
                    .get(&OrderedValue(v.clone()))
                    .map(|s| s.len())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Upper bound on ids a range probe would return.
    pub fn estimate_range(
        &self,
        lo: Option<&Value>,
        lo_incl: bool,
        hi: Option<&Value>,
        hi_incl: bool,
    ) -> usize {
        let lower: Bound<OrderedValue> = match lo {
            Some(v) if lo_incl => Bound::Included(OrderedValue(v.clone())),
            Some(v) => Bound::Excluded(OrderedValue(v.clone())),
            None => Bound::Unbounded,
        };
        let upper: Bound<OrderedValue> = match hi {
            Some(v) if hi_incl => Bound::Included(OrderedValue(v.clone())),
            Some(v) => Bound::Excluded(OrderedValue(v.clone())),
            None => Bound::Unbounded,
        };
        self.map
            .range((lower, upper))
            .map(|(_, ids)| ids.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn eq_lookup() {
        let mut ix = Index::new("state", false);
        ix.insert(1, &json!({"state": "READY"})).unwrap();
        ix.insert(2, &json!({"state": "RUNNING"})).unwrap();
        ix.insert(3, &json!({"state": "READY"})).unwrap();
        assert_eq!(ix.lookup_eq(&json!("READY")), vec![1, 3]);
        assert_eq!(ix.lookup_eq(&json!("DONE")), Vec::<DocId>::new());
    }

    #[test]
    fn multikey_arrays() {
        let mut ix = Index::new("elements", false);
        ix.insert(1, &json!({"elements": ["Li", "Fe", "O"]}))
            .unwrap();
        ix.insert(2, &json!({"elements": ["Na", "O"]})).unwrap();
        assert_eq!(ix.lookup_eq(&json!("O")), vec![1, 2]);
        assert_eq!(ix.lookup_eq(&json!("Li")), vec![1]);
        assert_eq!(ix.distinct_values(), 4);
    }

    #[test]
    fn range_lookup() {
        let mut ix = Index::new("n", false);
        for (id, n) in [(1u64, 10), (2, 20), (3, 30), (4, 40)] {
            ix.insert(id, &json!({ "n": n })).unwrap();
        }
        assert_eq!(
            ix.lookup_range(Some(&json!(20)), true, Some(&json!(30)), true),
            vec![2, 3]
        );
        assert_eq!(
            ix.lookup_range(Some(&json!(20)), false, None, true),
            vec![3, 4]
        );
        assert_eq!(ix.lookup_range(None, true, Some(&json!(15)), true), vec![1]);
    }

    #[test]
    fn remove_cleans_up() {
        let mut ix = Index::new("a", false);
        let doc = json!({"a": 5});
        ix.insert(1, &doc).unwrap();
        ix.remove(1, &doc);
        assert!(ix.lookup_eq(&json!(5)).is_empty());
        assert_eq!(ix.distinct_values(), 0);
    }

    #[test]
    fn unique_violation() {
        let mut ix = Index::new("mps_id", true);
        ix.insert(1, &json!({"mps_id": "mps-1"})).unwrap();
        assert!(ix.insert(2, &json!({"mps_id": "mps-1"})).is_err());
        // Same doc re-inserting its own value is fine.
        ix.insert(1, &json!({"mps_id": "mps-1"})).unwrap();
    }

    #[test]
    fn nested_path() {
        let mut ix = Index::new("spec.task_type", false);
        ix.insert(1, &json!({"spec": {"task_type": "static"}}))
            .unwrap();
        assert_eq!(ix.lookup_eq(&json!("static")), vec![1]);
    }

    #[test]
    fn missing_field_not_indexed() {
        let mut ix = Index::new("x", false);
        ix.insert(1, &json!({"y": 1})).unwrap();
        assert_eq!(ix.distinct_values(), 0);
    }
}
