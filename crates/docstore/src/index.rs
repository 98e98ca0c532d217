//! Ordered secondary indexes on dotted field paths.
//!
//! An index maps each distinct value at a path to the set of document ids
//! holding it, using the BSON-like total order from [`crate::value`] so
//! that both equality and range queries can be accelerated. Array-valued
//! fields produce one entry per element (multikey indexes), which is what
//! makes queries like `{elements: "Li"}` fast.

use crate::error::{Result, StoreError};
use crate::value::{cmp_values, for_each_at_path, type_rank, OrderedValue};
use serde_json::Value;
use std::cmp::Ordering;
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
fn for_each_key<'a>(doc: &'a Value, path: &str, mut visit: impl FnMut(&'a Value)) {
    for_each_at_path(doc, path, &mut |v| match v {
        Value::Array(a) => a.iter().for_each(&mut visit),
        other => visit(other),
    });
}

/// Bytes of a string that a [`SortKey`]'s prefix holds inline.
const INLINE: usize = 14;

/// The length byte of a prefix that does not hold its whole key: a
/// string longer than [`INLINE`] bytes, or any non-string.
const INEXACT: u8 = INLINE as u8 + 1;

/// A key as a bulk build sorts it: borrowed from its document, behind
/// an inline summary that orders like [`cmp_values`] — the type rank,
/// a string's first [`INLINE`] bytes (zero-padded) and its length
/// (capped at [`INEXACT`]), big-endian in two words. Prefixes that
/// differ order their keys; equal prefixes of strings that fit are
/// equal keys, and comparing them reads no document. Any other tie —
/// two longer strings, or two non-strings of one type — falls back to
/// `cmp_values` on the values themselves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SortKey<'a> {
    prefix: (u64, u64),
    /// The key, in the document that exposes it.
    pub(crate) value: &'a Value,
}

impl<'a> SortKey<'a> {
    /// The sort key of `value`, borrowed.
    pub(crate) fn of(value: &'a Value) -> Self {
        let mut bytes = [0u8; 16];
        let (rank, body) = bytes.split_at_mut(1);
        let (inline, len) = body.split_at_mut(INLINE);
        rank.fill(type_rank(value));
        len.fill(INEXACT);
        if let Value::String(s) = value {
            inline.iter_mut().zip(s.bytes()).for_each(|(to, b)| *to = b);
            len.fill(s.len().min(usize::from(INEXACT)) as u8);
        }
        let word = u128::from_be_bytes(bytes);
        SortKey {
            prefix: ((word >> 64) as u64, word as u64),
            value,
        }
    }

    /// Does the prefix hold the whole key?
    fn exact(&self) -> bool {
        (self.prefix.1 & 0xff) < u64::from(INEXACT)
    }
}

impl Ord for SortKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.prefix.cmp(&other.prefix) {
            Ordering::Equal if !self.exact() => cmp_values(self.value, other.value),
            decided => decided,
        }
    }
}

impl PartialOrd for SortKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SortKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for SortKey<'_> {}

/// One key of a bulk build: the key, borrowed from the document that
/// exposes it, that document's id, and the key's place among the
/// document's keys. Sorted, equal keys run in the order one-by-one
/// insertion would have met them. Nothing in it is allocated: the
/// vector it sits in is the build's only transient per key.
pub(crate) type Entry<'a> = (SortKey<'a>, DocId, u32);

/// Push the entries `doc`, numbered `id`, exposes at `path`, in
/// path-walk order, borrowed from it.
pub(crate) fn push_entries<'a>(
    entries: &mut Vec<Entry<'a>>,
    id: DocId,
    doc: &'a Value,
    path: &str,
) {
    let mut at = 0;
    for_each_key(doc, path, |key| {
        entries.push((SortKey::of(key), id, at));
        at += 1;
    });
}

/// In sorted entries, the first key that one-by-one insertion in
/// `DocId` order would have refused as taken: the lowest `(DocId,
/// place)` whose key a lower `DocId` already exposed. The first entry of
/// each run of equal keys holds that run's lowest id, so one pass finds
/// it — wherever the two entries sit in the run.
pub(crate) fn first_collision<'e, 'a>(sorted: &'e [Entry<'a>]) -> Option<&'e Entry<'a>> {
    let mut head = sorted.first()?;
    let mut first: Option<&Entry<'a>> = None;
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
    /// kept (`1` or `1.0`) — and the set of its ids: one clone per
    /// distinct key, none per entry. Uniqueness is not checked here
    /// ([`first_collision`] is).
    pub(crate) fn built(path: String, unique: bool, sorted: &[Entry<'_>]) -> Index {
        let runs = || sorted.chunk_by(|a, b| a.0 == b.0);
        // Counted first, so the runs take one allocation and no freed
        // smaller one is left between the id sets the index keeps.
        let mut map = Vec::with_capacity(runs().count());
        for run in runs() {
            let mut entries = run.iter();
            if let Some((key, id, _)) = entries.next() {
                let mut ids = BTreeSet::from([*id]);
                ids.extend(entries.map(|(_, id, _)| *id));
                map.push((OrderedValue(key.value.clone()), ids));
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
    use proptest::prelude::*;
    use serde_json::json;

    /// Strings of 0–40 bytes that often tie on the inline prefix: a
    /// stem that stops short of it, fills it or runs past it, then
    /// pieces with NUL bytes and multi-byte UTF-8 that can straddle its
    /// end, cut at a char boundary.
    fn string() -> impl Strategy<Value = Value> {
        let stem = prop_oneof![
            Just(""),
            Just("abcdefghijklm"),
            Just("abcdefghijklmn"),
            Just("abcdefghijklmnop")
        ];
        let piece = prop_oneof![
            Just("\0"),
            Just("a"),
            Just("b"),
            Just("\u{e9}"),
            Just("\u{20ac}"),
            Just("\u{1f600}")
        ];
        (stem, prop::collection::vec(piece, 0..12)).prop_map(|(stem, pieces)| {
            let mut s = stem.to_string();
            for piece in pieces {
                if s.len() + piece.len() <= 40 {
                    s.push_str(piece);
                }
            }
            Value::String(s)
        })
    }

    /// Every type: strings as above, `1` / `1.0` / `-0.0` and other
    /// numbers, null, bools, and small arrays and objects of them.
    fn key() -> impl Strategy<Value = Value> {
        let scalar = || {
            prop_oneof![
                string(),
                string(),
                prop_oneof![
                    Just(json!(1)),
                    Just(json!(1.0)),
                    Just(json!(-0.0)),
                    Just(json!(0)),
                    Just(json!(2.5))
                ],
                Just(Value::Null),
                any::<bool>().prop_map(Value::from),
            ]
        };
        prop_oneof![
            scalar(),
            scalar(),
            prop::collection::vec(scalar(), 0..3).prop_map(Value::Array),
            (scalar(), scalar()).prop_map(|(a, b)| json!({"a": a, "b": b})),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// The prefix never changes an answer: `SortKey` orders and
        /// equates exactly as `cmp_values` does.
        #[test]
        fn sort_keys_order_like_cmp_values(a in key(), b in key()) {
            let (ka, kb) = (SortKey::of(&a), SortKey::of(&b));
            let want = cmp_values(&a, &b);
            prop_assert_eq!(ka.cmp(&kb), want, "{:?} vs {:?}", a, b);
            prop_assert_eq!(ka == kb, want == Ordering::Equal, "{:?} vs {:?}", a, b);
            prop_assert_eq!(kb.cmp(&ka), want.reverse(), "{:?} vs {:?}", b, a);
        }
    }

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
