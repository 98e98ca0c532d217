//! Ordered secondary indexes on dotted field paths.
//!
//! An index maps each distinct value at a path to the set of document ids
//! holding it, a sorted vector without repeats. A value is keyed by its
//! encoding ([`crate::key`]), whose byte order is the BSON-like total
//! order of [`crate::value`], so both equality and range queries can be
//! accelerated. Array-valued fields produce one entry per element
//! (multikey indexes), which is what makes queries like
//! `{elements: "Li"}` fast.

use crate::error::{Result, StoreError};
use crate::key;
use crate::value::{cmp_values, Path};
use serde_json::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

/// Internal id assigned to each stored document.
pub type DocId = u64;

/// One secondary index.
#[derive(Debug, Clone)]
pub struct Index {
    /// Dotted field path this index covers.
    pub path: Path,
    /// Reject two documents with the same indexed value?
    pub unique: bool,
    /// Each distinct key's encoding ([`key::encode`]) and the ids of the
    /// documents exposing it: ascending, without repeats, never empty.
    map: BTreeMap<Box<[u8]>, Vec<DocId>>,
    /// Has some document exposed two or more keys here? Set for good,
    /// as MongoDB's multikey flag is: a range probe reads it.
    multikey: bool,
}

/// The keys a document exposes at an index path: one per array element
/// for multikey behaviour, or the single value itself, in path-walk
/// order, each encoded beside the value it encodes. The vector and the
/// encodings are the only allocations.
fn index_keys<'a>(doc: &'a Value, path: &Path) -> Vec<(Box<[u8]>, &'a Value)> {
    let mut keys = Vec::new();
    for_each_key(doc, path, |v| keys.push((key::encoded(v), v)));
    keys
}

/// Visit the keys [`index_keys`] returns, in the same order, without
/// cloning them: what `distinct` collects, too.
pub(crate) fn for_each_key<'a>(doc: &'a Value, path: &Path, mut visit: impl FnMut(&'a Value)) {
    path.any(doc, &mut |v| {
        match v {
            Value::Array(a) => a.iter().for_each(&mut visit),
            other => visit(other),
        }
        false
    });
}

/// Bytes of a key's encoding that an [`Entry`] holds inline.
const PREFIX: usize = 16;

/// One key of a bulk build — borrowed from the document that exposes it,
/// with that document's id and the key's place among its keys — behind
/// the first [`PREFIX`] bytes of its encoding, zero-padded, in two words.
/// Sorted ([`Entry::order`]), equal keys run in the order one-by-one
/// insertion would have met them. Nothing in it is allocated.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry<'a> {
    prefix: (u64, u64),
    /// The encoding's length, saturated; up to [`PREFIX`], the prefix holds it whole.
    len: u8,
    /// The key, in the document that exposes it.
    pub(crate) value: &'a Value,
    pub(crate) id: DocId,
    place: u32,
}

impl<'a> Entry<'a> {
    pub(crate) fn new(value: &'a Value, id: DocId, place: u32) -> Self {
        let (mut word, mut len) = (0u128, 0);
        key::encode(value, &mut |part| {
            for &b in part.iter().take(PREFIX.saturating_sub(len)) {
                word = word << 8 | u128::from(b);
            }
            len += part.len();
        });
        let word = word << (8 * PREFIX.saturating_sub(len));
        Entry {
            prefix: ((word >> 64) as u64, word as u64),
            len: u8::try_from(len).unwrap_or(u8::MAX),
            value,
            id,
            place,
        }
    }

    /// The keys' order. Prefixes that differ decide; equal prefixes of
    /// which one holds its whole encoding are one key, since no encoding
    /// extends another, and comparing them reads no document. Any other
    /// tie falls to `cmp_values` on the values, which orders as the
    /// encodings do.
    fn cmp_key(&self, other: &Self) -> Ordering {
        match self.prefix.cmp(&other.prefix) {
            Ordering::Equal if self.len as usize > PREFIX => cmp_values(self.value, other.value),
            decided => decided,
        }
    }

    /// The order a build sorts its entries in: by key, then id, then
    /// place.
    pub(crate) fn order(&self, other: &Self) -> Ordering {
        self.cmp_key(other)
            .then((self.id, self.place).cmp(&(other.id, other.place)))
    }

    /// The key's encoding as a store keeps it, allocated at its length:
    /// copied out of the prefix when it holds it whole, which reads no
    /// document (visited at random), and encoded from it otherwise.
    pub(crate) fn key(&self) -> Box<[u8]> {
        let word = (u128::from(self.prefix.0) << 64) | u128::from(self.prefix.1);
        match word.to_be_bytes().get(..usize::from(self.len)) {
            Some(whole) => whole.into(),
            None => key::encoded(self.value),
        }
    }
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
        if entry.cmp_key(head).is_ne() {
            head = entry;
        } else if entry.id != head.id
            && first.is_none_or(|f| (entry.id, entry.place) < (f.id, f.place))
        {
            first = Some(entry);
        }
    }
    first
}

/// The duplicate-key error naming `key` of the unique index on `path`.
pub(crate) fn unique_violation(path: &Path, key: &Value) -> StoreError {
    StoreError::DuplicateKey(format!("unique index on '{path}' value {key}"))
}

impl Index {
    /// Create an empty index over `path`.
    pub fn new(path: &str, unique: bool) -> Self {
        Index {
            path: Path::new(path),
            unique,
            map: BTreeMap::new(),
            multikey: false,
        }
    }

    /// Fill this empty index with `sorted`, entries ordered by
    /// [`Entry::order`]: each run of equal keys becomes one key
    /// ([`Entry::key`]) and the vector of its ids, allocated once at its
    /// final size: one key and one vector per distinct key, nothing per
    /// entry. Uniqueness is not checked here ([`first_collision`] is).
    pub(crate) fn fill(&mut self, sorted: &[Entry<'_>]) {
        let runs = || sorted.chunk_by(|a, b| a.cmp_key(b).is_eq());
        // Counted first, so the runs take one allocation and no freed
        // smaller one is left between the id sets the index keeps.
        let mut map = Vec::with_capacity(runs().count());
        for run in runs() {
            // A document exposing one key twice sits in its run twice.
            let ids = || {
                (run.chunk_by(|a, b| a.id == b.id))
                    .filter_map(<[_]>::first)
                    .map(|entry| entry.id)
            };
            if let Some(first) = run.first() {
                let mut set = Vec::with_capacity(ids().count());
                set.extend(ids());
                map.push((first.key(), set));
            }
        }
        self.map = map.into_iter().collect();
        self.multikey = sorted.iter().any(|entry| entry.place > 0);
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.map.len()
    }

    /// Would inserting `doc` for `id` violate this index's uniqueness?
    /// `ignore` is an id whose existing entries should be disregarded
    /// (used when checking an update against the document's old self).
    pub fn check_unique(&self, id: DocId, doc: &Value, ignore: Option<DocId>) -> Result<()> {
        self.clash(&index_keys(doc, &self.path), id, ignore)
    }

    /// [`check_unique`](Self::check_unique) of a document's `keys`.
    fn clash(&self, keys: &[(Box<[u8]>, &Value)], id: DocId, ignore: Option<DocId>) -> Result<()> {
        let taken = |ids: &Vec<DocId>| ids.iter().any(|&o| o != id && Some(o) != ignore);
        match keys
            .iter()
            .find(|(k, _)| self.unique && self.map.get(k).is_some_and(taken))
        {
            Some((_, v)) => Err(unique_violation(&self.path, v)),
            None => Ok(()),
        }
    }

    /// Add `doc`'s entries. Fails (before mutating) on unique violation.
    pub fn insert(&mut self, id: DocId, doc: &Value) -> Result<()> {
        let keys = index_keys(doc, &self.path);
        self.clash(&keys, id, None)?;
        self.multikey |= keys.len() > 1;
        for (k, _) in keys {
            let ids = self.map.entry(k).or_default();
            if let Err(at) = ids.binary_search(&id) {
                ids.insert(at, id);
            }
        }
        Ok(())
    }

    /// Remove `doc`'s entries.
    pub fn remove(&mut self, id: DocId, doc: &Value) {
        for (key, _) in index_keys(doc, &self.path) {
            if let Some(ids) = self.map.get_mut(&key) {
                if let Ok(at) = ids.binary_search(&id) {
                    ids.remove(at);
                }
                if ids.is_empty() {
                    self.map.remove(&key);
                }
            }
        }
    }

    /// Does `new` expose the keys `old` does at this index's path, so
    /// that re-indexing it would change nothing? Compared in place,
    /// nothing cloned: the path is walked through both documents while
    /// both sides are objects, and where the walk stops — at the path's
    /// end, an array or a scalar — the two values must be equal. What
    /// lies below that point decides the keys, so `true` is sure; a
    /// `false` over equal keys (an array of objects whose other fields
    /// changed) costs a re-index, never a wrong one.
    pub(crate) fn keeps_keys(&self, old: &Value, new: &Value) -> bool {
        let (mut old, mut new) = (old, new);
        for seg in self.path.segs() {
            match (old, new) {
                (Value::Object(a), Value::Object(b)) => match (a.get(&seg.key), b.get(&seg.key)) {
                    (Some(a), Some(b)) => (old, new) = (a, b),
                    (a, b) => return a.is_none() && b.is_none(),
                },
                _ => break,
            }
        }
        old == new
    }

    /// The ids of the documents `probe` finds, sorted and without
    /// repeats. One set visited is copied as it is; several are
    /// concatenated, then sorted and deduplicated (a multikey document
    /// sits in the set of each of its keys).
    pub(crate) fn lookup(&self, probe: &Probe<'_>) -> Vec<DocId> {
        let (mut ids, mut sets) = (Vec::new(), 0);
        self.visit(probe, |set| {
            ids.extend_from_slice(set);
            sets += 1;
        });
        if sets > 1 {
            ids.sort_unstable();
            ids.dedup();
        }
        ids
    }

    /// The probe for a range on this index's path. Once a document has
    /// exposed two keys here, a two-sided range probes its lower side
    /// only: an array matches when one element passes each bound, and
    /// those may be two elements with no key between the bounds. The
    /// matcher checks the upper bound on what the probe finds.
    pub(crate) fn range_probe<'a>(&self, lo: Bound<&'a Value>, hi: Bound<&'a Value>) -> Probe<'a> {
        match lo {
            Bound::Included(_) | Bound::Excluded(_) if self.multikey => {
                Probe::Range(lo, Bound::Unbounded)
            }
            _ => Probe::Range(lo, hi),
        }
    }

    /// What [`lookup`](Self::lookup) would walk: the sum of the sizes of
    /// the sets `probe` visits, an upper bound on the ids it returns,
    /// with nothing materialized. The cost the planner compares and
    /// `explain` prints.
    pub(crate) fn estimate(&self, probe: &Probe<'_>) -> usize {
        let mut n = 0;
        self.visit(probe, |set| n += set.len());
        n
    }

    /// Hand each id set `probe` visits to `each`: a key's set per key
    /// present, or every set in the range, in key order. Each operand is
    /// encoded once, and the map compares bytes.
    fn visit<'s>(&'s self, probe: &Probe<'_>, mut each: impl FnMut(&'s [DocId])) {
        match *probe {
            Probe::Keys(keys) => keys
                .iter()
                .filter_map(|v| self.map.get(&key::encoded(v)))
                .for_each(|set| each(set)),
            Probe::Range(lo, hi) => {
                let (lo, hi) = (lo.map(key::encoded), hi.map(key::encoded));
                let (lo, hi) = (lo.as_ref().map(|k| &**k), hi.as_ref().map(|k| &**k));
                // Up from the lower bound while the upper one holds:
                // `BTreeMap::range` panics on bounds that hold no key.
                (self.map.range::<[u8], _>((lo, Bound::Unbounded)))
                    .take_while(|(k, _)| (Bound::Unbounded, hi).contains(&***k))
                    .for_each(|(_, set)| each(set));
            }
        }
    }
}

/// What the planner asks of one index: the ids under some keys, or the
/// ids in a range of keys.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Probe<'a> {
    /// An equality (one key) or an `$in` (its operands).
    Keys(&'a [Value]),
    /// A range: the lower and the upper bound.
    Range(Bound<&'a Value>, Bound<&'a Value>),
}

impl Probe<'_> {
    /// Does the index answer this probe as a scan would? Not when an
    /// operand is an array: the index holds a top-level array's
    /// elements, never the array itself, so it cannot find the document
    /// an array operand matches whole.
    pub(crate) fn indexable(&self) -> bool {
        let array = |b: &Bound<&Value>| matches!(b, Bound::Included(v) | Bound::Excluded(v) if v.is_array());
        match self {
            Probe::Keys(keys) => !keys.iter().any(Value::is_array),
            Probe::Range(lo, hi) => !array(lo) && !array(hi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::OrderedValue;
    use proptest::prelude::*;
    use serde_json::json;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// An entry orders as its key's encoding does, and the key it
        /// keeps — copied out of the prefix or encoded again — is the
        /// encoding.
        #[test]
        fn entries_order_and_keep_their_encodings(
            a in crate::key::tests::value(),
            b in crate::key::tests::value(),
        ) {
            let (ea, eb) = (Entry::new(&a, 0, 0), Entry::new(&b, 0, 0));
            let (ka, kb) = (key::encoded(&a), key::encoded(&b));
            prop_assert_eq!(ea.cmp_key(&eb), ka.cmp(&kb), "{} vs {}", a, b);
            prop_assert_eq!(ea.key(), ka);
        }
    }

    /// The ids an equality probe for `v` finds.
    fn eq(ix: &Index, v: Value) -> Vec<DocId> {
        ix.lookup(&Probe::Keys(&[v]))
    }

    #[test]
    fn eq_lookup() {
        let mut ix = Index::new("state", false);
        ix.insert(1, &json!({"state": "READY"})).unwrap();
        ix.insert(2, &json!({"state": "RUNNING"})).unwrap();
        ix.insert(3, &json!({"state": "READY"})).unwrap();
        assert_eq!(eq(&ix, json!("READY")), vec![1, 3]);
        assert_eq!(eq(&ix, json!("DONE")), Vec::<DocId>::new());
        assert_eq!(ix.estimate(&Probe::Keys(&[json!("READY")])), 2);
    }

    #[test]
    fn multikey_arrays() {
        let mut ix = Index::new("elements", false);
        ix.insert(1, &json!({"elements": ["Li", "Fe", "O"]}))
            .unwrap();
        ix.insert(2, &json!({"elements": ["Na", "O"]})).unwrap();
        assert_eq!(eq(&ix, json!("O")), vec![1, 2]);
        assert_eq!(eq(&ix, json!("Li")), vec![1]);
        assert_eq!(ix.distinct_values(), 4);
        // Document 1 sits under three of the keys: found once, counted
        // once per set.
        let keys = [json!("O"), json!("Li"), json!("Fe")];
        assert_eq!(ix.lookup(&Probe::Keys(&keys)), vec![1, 2]);
        assert_eq!(ix.estimate(&Probe::Keys(&keys)), 4);
    }

    #[test]
    fn range_lookup() {
        let mut ix = Index::new("n", false);
        for (id, n) in [(1u64, 10), (2, 20), (3, 30), (4, 40)] {
            ix.insert(id, &json!({ "n": n })).unwrap();
        }
        let (twenty, thirty, fifteen) = (json!(20), json!(30), json!(15));
        let range = |lo, hi| ix.lookup(&Probe::Range(lo, hi));
        use Bound::{Excluded, Included, Unbounded};
        assert_eq!(range(Included(&twenty), Included(&thirty)), vec![2, 3]);
        assert_eq!(range(Excluded(&twenty), Unbounded), vec![3, 4]);
        assert_eq!(range(Unbounded, Included(&fifteen)), vec![1]);
        // Bounds that hold no key find nothing.
        assert!(range(Included(&thirty), Excluded(&twenty)).is_empty());
        assert!(range(Excluded(&twenty), Excluded(&twenty)).is_empty());
        assert!(range(Included(&twenty), Excluded(&twenty)).is_empty());
        assert_eq!(range(Included(&twenty), Included(&twenty)), vec![2]);
    }

    /// `[0, 4]` passes `$gt: 1` with 4 and `$lt: 3` with 0, with no key
    /// between the bounds: once an index is multikey, a two-sided range
    /// probes its lower side only, and finds it; until then, both sides.
    #[test]
    fn a_multikey_index_probes_one_side_of_a_range() {
        use Bound::{Excluded, Unbounded};
        let (one, three) = (json!(1), json!(3));
        let mut ix = Index::new("n", false);
        ix.insert(1, &json!({"n": 2})).unwrap();
        ix.insert(2, &json!({"n": 5})).unwrap();
        let two_sided = |ix: &Index| ix.lookup(&ix.range_probe(Excluded(&one), Excluded(&three)));
        assert_eq!(two_sided(&ix), vec![1]);
        ix.insert(3, &json!({"n": [0, 4]})).unwrap();
        assert_eq!(two_sided(&ix), vec![1, 2, 3]);
        let upper = ix.lookup(&ix.range_probe(Unbounded, Excluded(&three)));
        assert_eq!(upper, vec![1, 3]);
        // Sticky: removing the array leaves the index multikey.
        ix.remove(3, &json!({"n": [0, 4]}));
        assert_eq!(two_sided(&ix), vec![1, 2]);
    }

    #[test]
    fn array_operands_are_not_indexable() {
        let (one, pair) = (json!(1), json!([1, 2]));
        assert!(Probe::Keys(&[json!(1), json!("a")]).indexable());
        assert!(!Probe::Keys(&[json!(1), json!([1])]).indexable());
        assert!(!Probe::Keys(&[json!([])]).indexable());
        assert!(Probe::Range(Bound::Included(&one), Bound::Unbounded).indexable());
        assert!(!Probe::Range(Bound::Unbounded, Bound::Excluded(&pair)).indexable());
        assert!(!Probe::Range(Bound::Included(&pair), Bound::Included(&one)).indexable());
    }

    /// A small key: few enough values that probes and documents meet,
    /// `1` and `1.0` among them.
    fn small() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0i64..5).prop_map(Value::from),
            Just(json!(1.0)),
            Just(json!("a")),
            Just(json!("b")),
            Just(Value::Null),
            any::<bool>().prop_map(Value::from),
        ]
    }

    /// A document's `k`: missing, a key, or an array of keys (repeats
    /// and nested arrays included).
    fn multikey_doc() -> impl Strategy<Value = Value> {
        let element = prop_oneof![
            small(),
            small(),
            small(),
            prop::collection::vec(small(), 0..3).prop_map(Value::Array),
        ];
        prop_oneof![
            Just(json!({})),
            small().prop_map(|k| json!({ "k": k })),
            prop::collection::vec(element, 0..4).prop_map(|ks| json!({ "k": ks })),
        ]
    }

    fn bound() -> impl Strategy<Value = Bound<Value>> {
        prop_oneof![
            Just(Bound::Unbounded),
            small().prop_map(Bound::Included),
            small().prop_map(Bound::Excluded),
        ]
    }

    /// Is `k` inside `(lo, hi)`, by `cmp_values` alone?
    fn within(k: &Value, lo: Bound<&Value>, hi: Bound<&Value>) -> bool {
        let above = match lo {
            Bound::Included(v) => cmp_values(k, v) != Ordering::Less,
            Bound::Excluded(v) => cmp_values(k, v) == Ordering::Greater,
            Bound::Unbounded => true,
        };
        let below = match hi {
            Bound::Included(v) => cmp_values(k, v) != Ordering::Greater,
            Bound::Excluded(v) => cmp_values(k, v) == Ordering::Less,
            Bound::Unbounded => true,
        };
        above && below
    }

    /// Check `probe` against a walk of each document's own keys: which
    /// documents expose a key it selects (the ids `lookup` must return,
    /// in order, once each), and how many (document, set) pairs it
    /// visits (what `estimate` must sum).
    fn check_probe(docs: &[Value], probe: &Probe<'_>) -> std::result::Result<(), TestCaseError> {
        let mut ix = Index::new("k", false);
        for (id, doc) in (0..).zip(docs) {
            ix.insert(id, doc).unwrap();
        }
        let (mut want, mut visited) = (Vec::new(), 0);
        for (id, doc) in (0..).zip(docs) {
            let mut keys = values(doc);
            keys.sort();
            keys.dedup();
            let selected = match *probe {
                Probe::Keys(vs) => vs
                    .iter()
                    .filter(|v| keys.iter().any(|k| cmp_values(&k.0, v) == Ordering::Equal))
                    .count(),
                Probe::Range(lo, hi) => keys.iter().filter(|k| within(&k.0, lo, hi)).count(),
            };
            visited += selected;
            if selected > 0 {
                want.push(id);
            }
        }
        let got = ix.lookup(probe);
        prop_assert_eq!(&got, &want, "{:?} over {:?}", probe, docs);
        prop_assert_eq!(ix.estimate(probe), visited, "{:?} over {:?}", probe, docs);
        prop_assert!(ix.estimate(probe) >= got.len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// `$in` probes over multikey documents: sorted, deduplicated
        /// ids, and the sum of the visited sets' sizes.
        #[test]
        fn keys_probes_agree_with_a_walk_of_the_keys(
            docs in prop::collection::vec(multikey_doc(), 0..12),
            keys in prop::collection::vec(small(), 0..4),
        ) {
            check_probe(&docs, &Probe::Keys(&keys))?;
        }

        /// Range probes, inverted and empty ranges among them.
        #[test]
        fn range_probes_agree_with_a_walk_of_the_keys(
            docs in prop::collection::vec(multikey_doc(), 0..12),
            lo in bound(),
            hi in bound(),
        ) {
            check_probe(&docs, &Probe::Range(lo.as_ref(), hi.as_ref()))?;
        }
    }

    /// The keys `doc` exposes at `k`, in path-walk order.
    fn values(doc: &Value) -> Vec<OrderedValue> {
        let mut keys = Vec::new();
        for_each_key(doc, &Path::new("k"), |k| keys.push(OrderedValue(k.clone())));
        keys
    }

    /// Every key and its ids as the index holds them.
    fn held(ix: &Index) -> Vec<(Box<[u8]>, Vec<DocId>)> {
        ix.map
            .iter()
            .map(|(k, ids)| (k.clone(), ids.clone()))
            .collect()
    }

    /// The id sets of the index the vectors replace: a `BTreeSet` per
    /// key, the keys ordered by `cmp_values`, emptied sets removed.
    type Model = BTreeMap<OrderedValue, std::collections::BTreeSet<DocId>>;

    /// Check `ix` against `model` after a step: the sets' shape and keys,
    /// what `probe` and `range` find and cost, `check_unique` for `doc`,
    /// and that `Index::built` over the sorted entries of the documents
    /// `docs` holds equals inserting them one by one in id order.
    fn check_model(
        ix: &Index,
        model: &Model,
        docs: &BTreeMap<DocId, Value>,
        (probe, range, doc): (&[Value], (Bound<&Value>, Bound<&Value>), &Value),
    ) -> std::result::Result<(), TestCaseError> {
        for (key, ids) in &ix.map {
            prop_assert!(!ids.is_empty(), "{:?} has no ids", key);
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "{:?}: {:?}", key, ids);
        }
        let want: Vec<(Box<[u8]>, Vec<DocId>)> = (model.iter())
            .map(|(k, set)| (key::encoded(&k.0), set.iter().copied().collect()))
            .collect();
        prop_assert_eq!(held(ix), want);
        prop_assert_eq!(ix.distinct_values(), model.len());

        // Each probe key visits its set, repeats included; a range, the
        // sets of the keys inside it.
        let by_keys = probe
            .iter()
            .filter_map(|v| model.get(&OrderedValue(v.clone())));
        let in_range = (model.iter())
            .filter(|(k, _)| within(&k.0, range.0, range.1))
            .map(|(_, set)| set);
        for (probe, sets) in [
            (Probe::Keys(probe), by_keys.collect::<Vec<_>>()),
            (Probe::Range(range.0, range.1), in_range.collect()),
        ] {
            let ids: std::collections::BTreeSet<DocId> =
                sets.iter().copied().flatten().copied().collect();
            prop_assert_eq!(ix.lookup(&probe), ids.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(
                ix.estimate(&probe),
                sets.iter().map(|set| set.len()).sum::<usize>()
            );
        }

        for (id, ignore) in [(0, None), (1, Some(2)), (7, Some(7))] {
            let clash = ix.unique
                && values(doc).iter().any(|k| {
                    (model.get(k))
                        .is_some_and(|set| set.iter().any(|&o| o != id && Some(o) != ignore))
                });
            prop_assert_eq!(
                ix.check_unique(id, doc, ignore).is_err(),
                clash,
                "{:?}",
                doc
            );
        }

        let mut entries = Vec::new();
        for (id, doc) in docs {
            let mut place = 0;
            for_each_key(doc, &Path::new("k"), |key| {
                entries.push(Entry::new(key, *id, place));
                place += 1;
            });
        }
        entries.sort_unstable_by(Entry::order);
        let mut one_by_one = Index::new("k", ix.unique);
        for (id, doc) in docs {
            one_by_one.insert(*id, doc).unwrap();
        }
        let mut built = Index::new("k", ix.unique);
        built.fill(&entries);
        prop_assert_eq!(held(&built), held(&one_by_one));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Random inserts and removes of multikey documents (repeated
        /// and nested elements, `1` beside `1.0`) keep the id vectors
        /// what a `BTreeSet` per key would hold, and every answer the
        /// index gives the same. Each step inserts a document under its
        /// id if the id holds none, and removes the one it holds
        /// otherwise; a unique index refuses a taken key, unchanged.
        #[test]
        fn an_index_agrees_with_a_model_of_sets(
            unique in any::<bool>(),
            steps in prop::collection::vec((0u64..8, multikey_doc()), 0..40),
            probe in prop::collection::vec(small(), 0..4),
            lo in bound(),
            hi in bound(),
            doc in multikey_doc(),
        ) {
            let (mut ix, mut model) = (Index::new("k", unique), Model::new());
            let mut docs = BTreeMap::new();
            for (id, next) in steps {
                if let Some(old) = docs.remove(&id) {
                    ix.remove(id, &old);
                    for key in values(&old) {
                        if let Some(set) = model.get_mut(&key) {
                            set.remove(&id);
                            if set.is_empty() {
                                model.remove(&key);
                            }
                        }
                    }
                } else {
                    let keys = values(&next);
                    let taken = unique
                        && keys.iter().any(|k| model.get(k).is_some_and(|set| !set.contains(&id)));
                    prop_assert_eq!(ix.insert(id, &next).is_err(), taken, "{:?}", next);
                    if !taken {
                        for key in keys {
                            model.entry(key).or_default().insert(id);
                        }
                        docs.insert(id, next);
                    }
                }
                check_model(&ix, &model, &docs, (&probe, (lo.as_ref(), hi.as_ref()), &doc))?;
            }
        }
    }

    #[test]
    fn an_index_keeps_its_keys_when_the_update_leaves_them() {
        let ix = Index::new("spec.k", false);
        let keeps = |old: Value, new: Value| ix.keeps_keys(&old, &new);
        assert!(keeps(
            json!({"spec": {"k": 1}, "n": 1}),
            json!({"spec": {"k": 1}, "n": 2})
        ));
        assert!(keeps(json!({"n": 1}), json!({"n": 2})));
        assert!(keeps(
            json!({"spec": {"k": [1, 2]}}),
            json!({"spec": {"k": [1, 2]}, "x": 0})
        ));
        assert!(keeps(
            json!({"spec": [{"k": 1}]}),
            json!({"spec": [{"k": 1}]})
        ));
        assert!(!keeps(
            json!({"spec": {"k": 1}}),
            json!({"spec": {"k": 1.0}})
        ));
        assert!(!keeps(
            json!({"spec": {"k": [1, 2]}}),
            json!({"spec": {"k": [2, 1]}})
        ));
        assert!(!keeps(json!({"spec": {"k": 1}}), json!({"spec": {}})));
        assert!(!keeps(
            json!({"spec": {"k": 1}}),
            json!({"spec": [{"k": 1}]})
        ));
        // Conservative below an array: the same keys, but other fields
        // of its objects changed.
        assert!(!keeps(
            json!({"spec": [{"k": 1, "x": 0}]}),
            json!({"spec": [{"k": 1, "x": 1}]})
        ));
    }

    #[test]
    fn remove_cleans_up() {
        let mut ix = Index::new("a", false);
        let doc = json!({"a": 5});
        ix.insert(1, &doc).unwrap();
        ix.remove(1, &doc);
        assert!(eq(&ix, json!(5)).is_empty());
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
        assert_eq!(eq(&ix, json!("static")), vec![1]);
    }

    #[test]
    fn missing_field_not_indexed() {
        let mut ix = Index::new("x", false);
        ix.insert(1, &json!({"y": 1})).unwrap();
        assert_eq!(ix.distinct_values(), 0);
    }
}
