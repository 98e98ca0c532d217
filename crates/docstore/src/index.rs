//! Ordered secondary indexes on dotted field paths, and a collection's
//! `_id` map.
//!
//! An index maps each distinct value at a path to the set of document ids
//! holding it, a sorted vector without repeats. A value is keyed by its
//! encoding ([`crate::key`]), whose byte order is the BSON-like total
//! order of [`crate::value`], so both equality and range queries can be
//! accelerated. Array-valued fields produce one entry per element
//! (multikey indexes), which is what makes queries like
//! `{elements: "Li"}` fast.
//!
//! The keys live in two parts (DESIGN §10, "Sorted runs and a delta"):
//! an immutable sorted run (`Run`) — every key's encoding in one vector,
//! every id in another — which a bulk build writes straight from its
//! sorted entries, and a small map of the keys written since, each with
//! its whole current set, which shadows the run key by key. A write
//! folds the two into a new run once the map holds more keys than the
//! run.

use crate::error::{Result, StoreError};
use crate::key;
use crate::value::{cmp_values, Path};
use serde_json::Value;
use std::cmp::Ordering;
use std::collections::btree_map::Entry as Slot;
use std::collections::BTreeMap;
use std::iter;
use std::ops::{Bound, Range, RangeBounds};

/// Internal id assigned to each stored document.
pub type DocId = u64;

/// One secondary index, or a collection's `_id` map.
#[derive(Debug, Clone)]
pub struct Index {
    /// Dotted field path this index covers.
    pub path: Path,
    /// Reject two documents with the same indexed value?
    pub unique: bool,
    /// The keys as of the last build or fold.
    run: Run,
    /// Each key written since, by its encoding, with its whole current
    /// set of ids (ascending, without repeats): empty where the writes
    /// removed a key the run holds. Where it holds a key, the run's set
    /// is stale.
    delta: BTreeMap<Box<[u8]>, Vec<DocId>>,
    /// Has some document exposed two or more keys here? Set for good,
    /// as MongoDB's multikey flag is: a range probe reads it.
    multikey: bool,
}

/// Keys in ascending order, each with the ids of the documents exposing
/// it (ascending, without repeats, never empty), in four vectors
/// whatever the number of keys. Never changed once made: a fold makes a
/// new one.
#[derive(Debug, Clone, Default)]
struct Run {
    /// Every key's encoding ([`key::encode`]), concatenated.
    keys: Vec<u8>,
    /// Where each key's encoding ends in `keys`.
    key_ends: Vec<u32>,
    /// Every key's ids, concatenated.
    ids: Vec<DocId>,
    /// Where each key's ids end in `ids`.
    id_ends: Vec<u32>,
}

/// Where the `at`-th key's bytes or ids start, given their `ends`: at
/// the previous key's end, or 0.
fn start(ends: &[u32], at: usize) -> usize {
    (at.checked_sub(1))
        .and_then(|before| ends.get(before))
        .map_or(0, |&end| end as usize)
}

/// An end offset of a run: past `u32::MAX` the run is refused, never
/// truncated.
fn offset(end: usize) -> Result<u32> {
    u32::try_from(end).map_err(|_| {
        StoreError::Capacity(format!(
            "an index run of {end} key bytes or ids passes 2^32"
        ))
    })
}

impl Run {
    /// An empty run with room for `keys` keys of `bytes` bytes in all
    /// and `ids` ids: filled to exactly that, each vector is one
    /// allocation at its final size.
    fn with_capacity(keys: usize, bytes: usize, ids: usize) -> Self {
        Run {
            keys: Vec::with_capacity(bytes),
            key_ends: Vec::with_capacity(keys),
            ids: Vec::with_capacity(ids),
            id_ends: Vec::with_capacity(keys),
        }
    }

    fn key_count(&self) -> usize {
        self.key_ends.len()
    }

    /// The `at`-th key's encoding and ids.
    fn pair(&self, at: usize) -> (&[u8], &[DocId]) {
        let span = |ends: &[u32]| start(ends, at)..start(ends, at + 1);
        let keys = self.keys.get(span(&self.key_ends)).unwrap_or_default();
        (keys, self.ids.get(span(&self.id_ends)).unwrap_or_default())
    }

    /// Where `key` sits among the run's keys, or where it would. A key
    /// above the last is placed by one comparison: every `_id` a document
    /// is given on insert sorts above those given before it
    /// (`collection::auto_id`), so that is where an insert's keys often go.
    fn search(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        let end = self.key_count();
        match end.checked_sub(1) {
            Some(last) if self.pair(last).0 < key => Err(end),
            _ => self.search_in(0..end, key),
        }
    }

    /// [`search`](Self::search) among the keys from `from` on, all of
    /// those before it known to be lower: galloping out from `from`, then
    /// halving, so a walk of ascending keys pays the log of each gap.
    fn search_from(&self, mut from: usize, key: &[u8]) -> std::result::Result<usize, usize> {
        let (mut hi, mut step) = (from, 1);
        while hi < self.key_count() && self.pair(hi).0 < key {
            (from, hi, step) = (hi + 1, hi + step, step * 2);
        }
        self.search_in(from..self.key_count().min(hi + 1), key)
    }

    /// A binary search for `key` among the keys `within`.
    fn search_in(&self, within: Range<usize>, key: &[u8]) -> std::result::Result<usize, usize> {
        let (mut lo, mut hi) = (within.start, within.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.pair(mid).0.cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// The position of the first key at or above `lo`.
    fn seek(&self, lo: Bound<&[u8]>) -> usize {
        match lo {
            Bound::Unbounded => 0,
            Bound::Included(k) => self.search(k).unwrap_or_else(|at| at),
            Bound::Excluded(k) => self.search(k).map_or_else(|at| at, |at| at + 1),
        }
    }

    /// This run with `delta` written over it: where the delta holds a
    /// key, its set replaces the run's and an empty one removes the key.
    /// The run's stretches between the delta's keys are copied whole
    /// ([`copy`](Self::copy)), so a fold costs a search per delta key
    /// and a copy of the two, nothing per run key but its shifted
    /// offsets. Sized for both parts in full and shrunk after, so each
    /// vector is allocated once.
    fn merge(&self, delta: &BTreeMap<Box<[u8]>, Vec<DocId>>) -> Result<Run> {
        let bytes = self.keys.len() + delta.keys().map(|k| k.len()).sum::<usize>();
        let ids = self.ids.len() + delta.values().map(Vec::len).sum::<usize>();
        let mut out = Run::with_capacity(self.key_count() + delta.len(), bytes, ids);
        let mut from = 0;
        for (key, set) in delta {
            let (to, next) = match self.search_from(from, key) {
                Ok(at) => (at, at + 1),
                Err(at) => (at, at),
            };
            out.copy(self, from..to)?;
            if !set.is_empty() {
                out.append_key(|o| o.extend_from_slice(key), set.iter().copied())?;
            }
            from = next;
        }
        out.copy(self, from..self.key_count())?;
        out.keys.shrink_to_fit();
        out.key_ends.shrink_to_fit();
        out.ids.shrink_to_fit();
        out.id_ends.shrink_to_fit();
        Ok(out)
    }

    /// Append `run`'s consecutive keys `keys`, above every key this run
    /// holds: their bytes and ids copied in one piece each, their end
    /// offsets shifted by where the pieces land.
    fn copy(&mut self, run: &Run, keys: Range<usize>) -> Result<()> {
        let span = |ends: &[u32]| start(ends, keys.start)..start(ends, keys.end);
        let (bytes, ids) = (span(&run.key_ends), span(&run.id_ends));
        let key_ends = run.key_ends.get(keys.clone()).unwrap_or_default();
        let id_ends = run.id_ends.get(keys).unwrap_or_default();
        for (&key_end, &id_end) in key_ends.iter().zip(id_ends) {
            (self.key_ends).push(offset(key_end as usize - bytes.start + self.keys.len())?);
            (self.id_ends).push(offset(id_end as usize - ids.start + self.ids.len())?);
        }
        self.keys
            .extend_from_slice(run.keys.get(bytes).unwrap_or_default());
        self.ids
            .extend_from_slice(run.ids.get(ids).unwrap_or_default());
        Ok(())
    }

    /// Append a key above every key the run holds, written by `key`,
    /// with its ids: ascending, without repeats, at least one.
    fn append_key(
        &mut self,
        key: impl FnOnce(&mut Vec<u8>),
        ids: impl Iterator<Item = DocId>,
    ) -> Result<()> {
        key(&mut self.keys);
        self.ids.extend(ids);
        self.key_ends.push(offset(self.keys.len())?);
        self.id_ends.push(offset(self.ids.len())?);
        Ok(())
    }
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
    len: u32,
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
            len: u32::try_from(len).unwrap_or(u32::MAX),
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

    /// Append the key's encoding to `out`: copied out of the prefix when
    /// it holds it whole, which reads no document (visited at random),
    /// and encoded from the value otherwise.
    fn write_key(&self, out: &mut Vec<u8>) {
        let word = (u128::from(self.prefix.0) << 64) | u128::from(self.prefix.1);
        match word.to_be_bytes().get(..self.len as usize) {
            Some(whole) => out.extend_from_slice(whole),
            None => key::encode(self.value, &mut |part| out.extend_from_slice(part)),
        }
    }
}

/// The ids of one key's sorted entries, once each: a document exposing
/// the key twice sits among them twice.
fn ids_of<'e, 'a>(same: &'e [Entry<'a>]) -> impl Iterator<Item = DocId> + use<'e, 'a> {
    (same.chunk_by(|a, b| a.id == b.id))
        .filter_map(<[_]>::first)
        .map(|entry| entry.id)
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
            run: Run::default(),
            delta: BTreeMap::new(),
            multikey: false,
        }
    }

    /// Fill this empty index with `sorted`, entries ordered by
    /// [`Entry::order`], as its run: each group of equal entries becomes
    /// one key, its encoding written into the run's one key vector
    /// ([`Entry::write_key`]) and its ids into the one id vector. Sized
    /// first, so the run is four allocations at their final sizes,
    /// nothing per key. Uniqueness is not checked here
    /// ([`first_collision`] is).
    pub(crate) fn fill(&mut self, sorted: &[Entry<'_>]) -> Result<()> {
        let keys = || sorted.chunk_by(|a, b| a.cmp_key(b).is_eq());
        let (mut n, mut bytes, mut ids) = (0, 0, 0);
        for same in keys() {
            n += 1;
            bytes += same.first().map_or(0, |entry| entry.len as usize);
            ids += ids_of(same).count();
        }
        let mut run = Run::with_capacity(n, bytes, ids);
        for same in keys() {
            if let Some(first) = same.first() {
                run.append_key(|out| first.write_key(out), ids_of(same))?;
            }
        }
        self.run = run;
        self.multikey = sorted.iter().any(|entry| entry.place > 0);
        Ok(())
    }

    /// Number of distinct indexed values: the run's keys, less those the
    /// delta shadows, plus the delta's that hold ids.
    pub fn distinct_values(&self) -> usize {
        let shadowed = (self.delta.keys()).filter(|k| self.run.search(k).is_ok());
        let held = self.delta.values().filter(|ids| !ids.is_empty());
        self.run.key_count() - shadowed.count() + held.count()
    }

    /// The ids under the key encoded as `key`: the delta's set where it
    /// holds the key, the run's otherwise; `None` for no id.
    fn ids_under(&self, key: &[u8]) -> Option<&[DocId]> {
        let ids = match self.delta.get(key) {
            Some(ids) => ids,
            None => self.run.pair(self.run.search(key).ok()?).1,
        };
        Some(ids).filter(|ids| !ids.is_empty())
    }

    /// The lowest id under the key encoded as `key`, with no id vector
    /// made: a unique index's one document, as the `_id` map answers
    /// `get`, an `_id` equality and an insert's duplicate check.
    pub(crate) fn lowest(&self, key: &[u8]) -> Option<DocId> {
        self.ids_under(key)?.first().copied()
    }

    /// Every key from `lo` up with its ids, in key order: the run and
    /// the delta merged in one walk, the delta's set where both hold a
    /// key, removed keys skipped: what a range probe walks, in order.
    fn merged<'s>(
        &'s self,
        lo: Bound<&[u8]>,
    ) -> impl Iterator<Item = (&'s [u8], &'s [DocId])> + 's {
        let run = self.run.seek(lo)..self.run.key_count();
        let mut run = run.map(|at| self.run.pair(at)).peekable();
        let delta = self.delta.range::<[u8], _>((lo, Bound::Unbounded));
        let mut delta = delta.map(|(k, ids)| (&**k, ids.as_slice())).peekable();
        iter::from_fn(move || loop {
            let order = match (run.peek(), delta.peek()) {
                (Some((r, _)), Some((d, _))) => r.cmp(d),
                (Some(_), None) => Ordering::Less,
                (None, _) => Ordering::Greater,
            };
            let next = match order {
                Ordering::Less => run.next(),
                Ordering::Equal => run.next().and(delta.next()),
                Ordering::Greater => delta.next(),
            };
            match next? {
                (_, []) => continue,
                entry => return Some(entry),
            }
        })
    }

    /// Would inserting `doc` for `id` violate this index's uniqueness?
    /// `ignore` is an id whose existing entries should be disregarded
    /// (used when checking an update against the document's old self).
    /// A non-unique index walks and encodes nothing.
    pub fn check_unique(&self, id: DocId, doc: &Value, ignore: Option<DocId>) -> Result<()> {
        if !self.unique {
            return Ok(());
        }
        self.clash(&index_keys(doc, &self.path), id, ignore)
    }

    /// [`check_unique`](Self::check_unique) of a document's `keys`.
    fn clash(&self, keys: &[(Box<[u8]>, &Value)], id: DocId, ignore: Option<DocId>) -> Result<()> {
        let taken = |ids: &[DocId]| ids.iter().any(|&o| o != id && Some(o) != ignore);
        match keys
            .iter()
            .find(|(k, _)| self.unique && self.ids_under(k).is_some_and(taken))
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
            self.add(k, id);
        }
        self.fold();
        Ok(())
    }

    /// Put `id` under the key encoded as `key`, which holds no id: the
    /// `_id` map's insert, after a duplicate check of its own that names
    /// the `_id` (`Collection::raw_insert`). With no id under it, the run
    /// does not hold the key, or the delta shadows it with an empty set,
    /// so no set is copied out of the run and the run is not searched.
    pub(crate) fn insert_key(&mut self, key: Box<[u8]>, id: DocId) {
        debug_assert!(self.lowest(&key).is_none(), "{key:?} holds an id");
        self.delta.entry(key).or_default().push(id);
        self.fold();
    }

    /// Add `id` to `key`'s set in the delta, copied out of the run on the
    /// key's first write since the last fold.
    fn add(&mut self, key: Box<[u8]>, id: DocId) {
        let run = &self.run;
        let ids = (self.delta.entry(key)).or_insert_with_key(|k| {
            run.search(k)
                .map_or_else(|_| Vec::new(), |at| run.pair(at).1.to_vec())
        });
        if let Err(at) = ids.binary_search(&id) {
            ids.insert(at, id);
        }
    }

    /// Remove `doc`'s entries. A key left without ids leaves the delta,
    /// or, if the run holds it, stays there empty.
    pub fn remove(&mut self, id: DocId, doc: &Value) {
        for (key, _) in index_keys(doc, &self.path) {
            let in_run = self.run.search(&key).ok();
            let mut slot = match self.delta.entry(key) {
                Slot::Occupied(slot) => slot,
                Slot::Vacant(slot) => match in_run {
                    Some(at) => slot.insert_entry(self.run.pair(at).1.to_vec()),
                    None => continue,
                },
            };
            let ids = slot.get_mut();
            if let Ok(at) = ids.binary_search(&id) {
                ids.remove(at);
            }
            if ids.is_empty() && in_run.is_none() {
                slot.remove();
            }
        }
        self.fold();
    }

    /// Once the delta holds more keys than the run, merge the two into a
    /// new run and empty the delta. A fold costs the two parts' size,
    /// and since the last one at least as many key writes went into the
    /// delta as the run now holds keys, so each write pays amortized O(1)
    /// for it, with no constant to tune: a collection filled one
    /// document at a time folds when its delta reaches 1, 2, 4, … keys.
    /// A fold whose run would pass 2^32 is refused ([`offset`]) and the
    /// delta stays as it was: every answer is the same either way.
    fn fold(&mut self) {
        if self.delta.len() <= self.run.key_count() {
            return;
        }
        if let Ok(run) = self.run.merge(&self.delta) {
            self.run = run;
            self.delta.clear();
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
                (Value::Object(a), Value::Object(b)) => {
                    match (a.get_field(&seg.key), b.get_field(&seg.key)) {
                        (Some(a), Some(b)) => (old, new) = (a, b),
                        (a, b) => return a.is_none() && b.is_none(),
                    }
                }
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
    /// encoded once, and the keys compare as bytes.
    fn visit<'s>(&'s self, probe: &Probe<'_>, mut each: impl FnMut(&'s [DocId])) {
        match *probe {
            Probe::Keys(keys) => keys
                .iter()
                .filter_map(|v| self.ids_under(&key::encoded(v)))
                .for_each(each),
            Probe::Range(lo, hi) => {
                let (lo, hi) = (lo.map(key::encoded), hi.map(key::encoded));
                let (lo, hi) = (lo.as_ref().map(|k| &**k), hi.as_ref().map(|k| &**k));
                (self.merged(lo))
                    .take_while(|(k, _)| (Bound::Unbounded, hi).contains(*k))
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
        /// writes after what a run holds — copied out of the prefix or
        /// encoded again — is the encoding.
        #[test]
        fn entries_order_and_keep_their_encodings(
            a in crate::key::tests::value(),
            b in crate::key::tests::value(),
        ) {
            let (ea, eb) = (Entry::new(&a, 0, 0), Entry::new(&b, 0, 0));
            let (ka, kb) = (key::encoded(&a), key::encoded(&b));
            prop_assert_eq!(ea.cmp_key(&eb), ka.cmp(&kb), "{} vs {}", a, b);
            // Appended after what the run's vector already holds.
            let mut written = vec![7];
            ea.write_key(&mut written);
            prop_assert_eq!(&written[1..], &*ka);
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

    /// Every key and its ids as the index answers them: the merged walk.
    fn held(ix: &Index) -> Vec<(Box<[u8]>, Vec<DocId>)> {
        (ix.merged(Bound::Unbounded))
            .map(|(k, ids)| (k.into(), ids.to_vec()))
            .collect()
    }

    /// The id sets of the index the vectors replace: a `BTreeSet` per
    /// key, the keys ordered by `cmp_values`, emptied sets removed.
    type Model = BTreeMap<OrderedValue, std::collections::BTreeSet<DocId>>;

    /// The two parts' shape: the run's keys ascending, each with some
    /// ids, ascending; the delta's sets ascending, an empty one only for
    /// a key the run holds; and, after every write, no more keys in the
    /// delta than in the run (the fold rule).
    fn check_parts(ix: &Index) -> std::result::Result<(), TestCaseError> {
        let run: Vec<_> = (0..ix.run.key_count()).map(|at| ix.run.pair(at)).collect();
        prop_assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", run);
        for (key, ids) in &run {
            prop_assert!(!ids.is_empty(), "{:?} has no ids", key);
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "{:?}: {:?}", key, ids);
        }
        for (key, ids) in &ix.delta {
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "{:?}: {:?}", key, ids);
            prop_assert!(!ids.is_empty() || ix.run.search(key).is_ok(), "{:?}", key);
        }
        prop_assert!(
            ix.delta.len() <= ix.run.key_count(),
            "{} > {}",
            ix.delta.len(),
            ix.run.key_count()
        );
        Ok(())
    }

    /// Check `ix` against `model` after a step: the parts' shape, the
    /// keys and sets of the merged walk, what `probe` and `range` find
    /// and cost, `check_unique` for `doc`, and that `Index::fill` over
    /// the sorted entries of the documents `docs` holds equals inserting
    /// them one by one in id order.
    fn check_model(
        ix: &Index,
        model: &Model,
        docs: &BTreeMap<DocId, Value>,
        (probe, range, doc): (&[Value], (Bound<&Value>, Bound<&Value>), &Value),
    ) -> std::result::Result<(), TestCaseError> {
        check_parts(ix)?;
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

        let mut one_by_one = Index::new("k", ix.unique);
        for (id, doc) in docs {
            one_by_one.insert(*id, doc).unwrap();
        }
        prop_assert_eq!(held(&built(docs, ix.unique)), held(&one_by_one));
        Ok(())
    }

    /// An index on `k` filled by a bulk build of `docs`.
    fn built(docs: &BTreeMap<DocId, Value>, unique: bool) -> Index {
        let mut entries = Vec::new();
        for (id, doc) in docs {
            let mut place = 0;
            for_each_key(doc, &Path::new("k"), |key| {
                entries.push(Entry::new(key, *id, place));
                place += 1;
            });
        }
        entries.sort_unstable_by(Entry::order);
        let mut ix = Index::new("k", unique);
        ix.fill(&entries).unwrap();
        ix
    }

    /// Put `id`'s keys in `doc` into `model` (`add`) or take them out.
    fn apply(model: &mut Model, id: DocId, doc: &Value, add: bool) {
        for key in values(doc) {
            if add {
                model.entry(key).or_default().insert(id);
            } else if let Some(set) = model.get_mut(&key) {
                set.remove(&id);
                if set.is_empty() {
                    model.remove(&key);
                }
            }
        }
    }

    /// Would a unique index refuse `doc` for `id`: does another id hold
    /// one of its keys?
    fn taken(model: &Model, id: DocId, doc: &Value) -> bool {
        (values(doc).iter()).any(|k| model.get(k).is_some_and(|set| set.iter().any(|&o| o != id)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// Random inserts, removes and key-changing re-inserts of
        /// multikey documents (repeated and nested elements, `1` beside
        /// `1.0`), from an empty index or from a bulk-filled one, keep
        /// every answer the index gives what a `BTreeSet` per key would
        /// give, across folds of the delta into the run. Each step
        /// inserts a document under its id if the id holds none; else it
        /// re-indexes the id to the new document as an update does
        /// (`reindex`: checked first, then removed and inserted), or
        /// removes it. A unique index refuses a taken key, unchanged.
        #[test]
        fn an_index_agrees_with_a_model_of_sets(
            unique in any::<bool>(),
            initial in prop::collection::vec((0u64..8, multikey_doc()), 0..8),
            steps in prop::collection::vec((0u64..8, multikey_doc(), any::<bool>()), 0..40),
            probe in prop::collection::vec(small(), 0..4),
            lo in bound(),
            hi in bound(),
            doc in multikey_doc(),
        ) {
            let (mut model, mut docs) = (Model::new(), BTreeMap::new());
            // A bulk build keeps what one-by-one insertion in id order would.
            for (id, next) in initial.into_iter().collect::<BTreeMap<_, _>>() {
                if !(unique && taken(&model, id, &next)) {
                    apply(&mut model, id, &next, true);
                    docs.insert(id, next);
                }
            }
            let mut ix = built(&docs, unique);
            let check = (&probe[..], (lo.as_ref(), hi.as_ref()), &doc);
            check_model(&ix, &model, &docs, check)?;
            for (id, next, reindex) in steps {
                let refused = unique && taken(&model, id, &next);
                match docs.remove(&id) {
                    Some(old) if reindex => {
                        prop_assert_eq!(ix.check_unique(id, &next, Some(id)).is_err(), refused);
                        if refused {
                            docs.insert(id, old);
                        } else {
                            ix.remove(id, &old);
                            ix.insert(id, &next).unwrap();
                            apply(&mut model, id, &old, false);
                            apply(&mut model, id, &next, true);
                            docs.insert(id, next);
                        }
                    }
                    Some(old) => {
                        ix.remove(id, &old);
                        apply(&mut model, id, &old, false);
                    }
                    None => {
                        prop_assert_eq!(ix.insert(id, &next).is_err(), refused, "{:?}", next);
                        if !refused {
                            apply(&mut model, id, &next, true);
                            docs.insert(id, next);
                        }
                    }
                }
                check_model(&ix, &model, &docs, check)?;
            }
        }

        /// The `_id` map's shape: a unique index on `_id`, one scalar key
        /// per document, bulk-filled from the documents one-by-one
        /// insertion would keep. A duplicate is refused, and an id is
        /// found under its key until it is removed and absent after,
        /// whether the key sat in the run or in the delta.
        #[test]
        fn an_id_map_refuses_duplicates_and_forgets_removed_ids(
            initial in prop::collection::vec(small(), 0..10),
            steps in prop::collection::vec((0u64..12, small()), 0..40),
        ) {
            let (mut model, mut held) = (BTreeMap::new(), BTreeMap::new());
            for (id, v) in (0..).zip(initial) {
                if let Slot::Vacant(slot) = model.entry(OrderedValue(v.clone())) {
                    slot.insert(id);
                    held.insert(id, json!({ "_id": v }));
                }
            }
            let mut entries: Vec<Entry<'_>> = (held.iter())
                .map(|(id, doc)| Entry::new(&doc["_id"], *id, 0))
                .collect();
            entries.sort_unstable_by(Entry::order);
            prop_assert!(first_collision(&entries).is_none());
            let mut ix = Index::new("_id", true);
            ix.fill(&entries).unwrap();
            drop(entries);
            for (id, v) in steps {
                let key = OrderedValue(v.clone());
                match held.remove(&id) {
                    Some(doc) => {
                        let was = OrderedValue(doc["_id"].clone());
                        prop_assert_eq!(ix.lowest(&key::encoded(&was.0)), Some(id));
                        ix.remove(id, &doc);
                        model.remove(&was);
                        prop_assert_eq!(ix.lowest(&key::encoded(&was.0)), None, "{} removed", was.0);
                    }
                    None => {
                        let doc = json!({ "_id": v });
                        let refused = model.contains_key(&key);
                        prop_assert_eq!(ix.insert(id, &doc).is_err(), refused, "{}", v);
                        if !refused {
                            model.insert(key, id);
                            held.insert(id, doc);
                        }
                    }
                }
                check_parts(&ix)?;
                prop_assert_eq!(ix.distinct_values(), model.len());
                for v in [json!(0), json!(1), json!(1.0), json!(4), json!("a"), json!(null), json!(true)] {
                    let want = model.get(&OrderedValue(v.clone())).copied();
                    prop_assert_eq!(ix.lowest(&key::encoded(&v)), want, "{}", v);
                }
            }
        }
    }

    /// Inserted one distinct key at a time, an index folds each time its
    /// delta holds more keys than its run: with 1, 2, 4, 8 keys in the
    /// delta, leaving runs of 1, 3, 7 and 15 keys.
    #[test]
    fn one_by_one_inserts_fold_at_doubling_sizes() {
        let mut ix = Index::new("n", false);
        let mut runs = Vec::new();
        for n in 0..20u64 {
            ix.insert(n, &json!({ "n": n })).unwrap();
            if runs.last() != Some(&ix.run.key_count()) {
                runs.push(ix.run.key_count());
            }
        }
        assert_eq!(runs, [1, 3, 7, 15]);
        assert_eq!(ix.delta.len(), 5);
        assert_eq!(ix.distinct_values(), 20);
        assert_eq!(eq(&ix, json!(3)), vec![3]);
        assert_eq!(eq(&ix, json!(17)), vec![17]);
    }

    /// A removal of a key the run holds stays in the delta as an empty
    /// set: the key is gone from every answer until the next fold drops
    /// it from the run.
    #[test]
    fn a_removed_run_key_is_shadowed_by_an_empty_set() {
        let docs: BTreeMap<DocId, Value> = (0..4).map(|id| (id, json!({ "k": id }))).collect();
        let mut ix = built(&docs, false);
        assert_eq!((ix.run.key_count(), ix.delta.len()), (4, 0));
        ix.remove(2, &docs[&2]);
        assert_eq!(ix.delta.get(&*key::encoded(&json!(2))), Some(&Vec::new()));
        assert_eq!(eq(&ix, json!(2)), Vec::<DocId>::new());
        assert_eq!(ix.distinct_values(), 3);
        let all = ix.lookup(&Probe::Range(Bound::Unbounded, Bound::Unbounded));
        assert_eq!(all, vec![0, 1, 3]);
        // A new key and the removed one's return: two keys in the delta.
        ix.insert(9, &json!({"k": 9})).unwrap();
        ix.insert(2, &docs[&2]).unwrap();
        assert_eq!((ix.run.key_count(), ix.delta.len()), (4, 2));
        assert_eq!(
            ix.lookup(&Probe::Range(Bound::Unbounded, Bound::Unbounded)),
            vec![0, 1, 2, 3, 9]
        );
    }

    /// A run's offsets are `u32`: an end past `u32::MAX` is refused with
    /// a typed error, never truncated.
    #[test]
    fn an_offset_past_u32_is_refused() {
        assert_eq!(offset(u32::MAX as usize), Ok(u32::MAX));
        let past = offset(u32::MAX as usize + 1);
        assert!(matches!(past, Err(StoreError::Capacity(_))), "{past:?}");
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
