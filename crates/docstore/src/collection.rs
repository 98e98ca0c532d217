//! Collections: thread-safe containers of documents with Mongo-style CRUD,
//! secondary indexes, and atomic find-and-modify (the primitive FireWorks
//! uses to claim queue entries without double-running jobs).

use crate::column::{Candidates, Segment};
use crate::cursor::{CompiledFindOptions, CompiledProjection, FindOptions};
use crate::error::{Result, StoreError};
use crate::index::{first_collision, for_each_key, unique_violation, DocId, Entry, Index, Probe};
use crate::journal::{Shared, StateLock, Store};
use crate::key;
use crate::persist::{JournalOp, JournalRef};
use crate::profiler::OpKind;
use crate::query::{CompiledFilter, Filter};
use crate::update::Update;
use crate::value::{Docs, Document, OrderedValue, Path};
use mp_sync::LockRank;
use serde_json::{json, Value};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::slice;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

/// Outcome of an update call.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdateResult {
    /// Documents that matched the filter.
    pub matched: usize,
    /// Documents actually modified.
    pub modified: usize,
    /// Whether an upsert inserted a new document.
    pub upserted: bool,
    /// `_id` the upsert-inserted document got (`None` unless `upserted`).
    pub upserted_id: Option<Value>,
}

/// Access-path kind a query plan uses, declared in tie-break order:
/// when two plans estimate the same cost, equality probes beat `$in`
/// beat ranges beat a full scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlanKind {
    /// Point lookup on the `_id` primary map.
    IdLookup,
    /// Equality probe on a secondary index.
    IndexEq,
    /// `$in` probe on a secondary index.
    IndexIn,
    /// Range probe on a secondary index.
    IndexRange,
    /// Full collection scan.
    Collscan,
}

impl PlanKind {
    /// Stable display name, as reported by `explain()`.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::IdLookup => "ID_LOOKUP",
            PlanKind::IndexEq => "INDEX_EQ",
            PlanKind::IndexIn => "INDEX_IN",
            PlanKind::IndexRange => "INDEX_RANGE",
            PlanKind::Collscan => "COLLSCAN",
        }
    }

    /// Profiler counter bumped when a query executes via this kind.
    pub fn counter(self) -> &'static str {
        match self {
            PlanKind::IdLookup => "plan.id_lookup",
            PlanKind::IndexEq => "plan.index_eq",
            PlanKind::IndexIn => "plan.index_in",
            PlanKind::IndexRange => "plan.index_range",
            PlanKind::Collscan => "plan.collscan",
        }
    }
}

/// A costed access path, carrying what it reads. `explain()` reports
/// the chosen plan plus every alternative considered; reads and writes
/// execute exactly the plan this planner chooses, so the two always
/// agree.
#[derive(Clone, Copy)]
struct Plan<'a> {
    kind: PlanKind,
    access: Access<'a>,
    /// Estimated documents the plan must examine.
    cost: usize,
}

/// What a plan reads.
#[derive(Clone, Copy)]
enum Access<'a> {
    /// The document an `_id` equality found, if any.
    Id(Option<DocId>),
    /// A probe of one secondary index.
    Index(&'a Index, Probe<'a>),
    /// Every document.
    Scan,
}

impl Plan<'_> {
    /// The path `explain()` names: `_id` for a point lookup, none for
    /// a scan.
    fn index(&self) -> Option<&str> {
        match self.access {
            Access::Id(_) => Some("_id"),
            Access::Index(ix, _) => Some(ix.path.as_str()),
            Access::Scan => None,
        }
    }

    /// The ids the plan reads, in store order; `None` for a scan, which
    /// reads them all.
    fn ids(&self) -> Option<Vec<DocId>> {
        match self.access {
            Access::Id(found) => Some(found.into_iter().collect()),
            Access::Index(ix, probe) => Some(ix.lookup(&probe)),
            Access::Scan => None,
        }
    }
}

pub(crate) struct Inner {
    /// Documents are shared-ownership: readers clone the `Arc` (a pointer
    /// bump) and never the document. Writers copy-on-write — clone the
    /// JSON once, mutate the copy, swap the `Arc` in — so any snapshot a
    /// reader took stays exactly what it was when the lock was released.
    docs: BTreeMap<DocId, Arc<Document>>,
    /// The `_id` map: a unique index on `_id` (DESIGN §10).
    by_id: Index,
    indexes: Vec<Index>,
    /// Set by a raw mutation that changed something a cached read could
    /// see; `raw_apply` turns it into one generation bump before the
    /// write lock is released.
    dirty: bool,
    /// This generation's scan segment: built by its first COLLSCAN,
    /// taken out again by the bump that ends the generation.
    segment: OnceLock<Arc<Segment>>,
}

/// A named collection of JSON documents.
pub struct Collection {
    /// Shared with every profiler sample of this collection, so timing
    /// an operation allocates nothing.
    name: Arc<str>,
    inner: StateLock<Inner>,
    next_id: AtomicU64,
    /// Generation counter: bumped on every successful mutation. Query
    /// caches key their entries to a generation and drop them when the
    /// collection has moved on (see `mp_exec::QueryCache`).
    version: AtomicU64,
    /// Profiler, clock and journal, shared with the owning database.
    shared: Arc<Shared>,
}

impl Store for Collection {
    type State = Inner;
    type Retired = Option<Arc<Segment>>;
    fn state(&self) -> &StateLock<Inner> {
        &self.inner
    }
    fn bump_version(&self, inner: &mut Inner) -> Option<Arc<Segment>> {
        if !std::mem::take(&mut inner.dirty) {
            return None;
        }
        self.version.fetch_add(1, AtomicOrdering::AcqRel);
        inner.segment.take()
    }
}

impl Collection {
    pub(crate) fn new(name: &str, shared: Arc<Shared>) -> Self {
        Collection {
            name: name.into(),
            inner: StateLock::new(
                LockRank::Collection,
                Inner {
                    docs: BTreeMap::new(),
                    by_id: Index::new("_id", true),
                    indexes: Vec::new(),
                    dirty: false,
                    segment: OnceLock::new(),
                },
            ),
            next_id: AtomicU64::new(1),
            version: AtomicU64::new(0),
            shared,
        }
    }

    /// Current write generation. Any successful mutation makes this
    /// strictly greater than every previously observed value.
    pub fn version(&self) -> u64 {
        self.version.load(AtomicOrdering::Acquire)
    }

    /// Raise the generation to at least `floor`. A database re-creating
    /// a dropped collection seeds the successor past every generation
    /// the predecessor ever published, so `(name, generation)` cache
    /// keys can never alias across the drop.
    pub(crate) fn set_version_floor(&self, floor: u64) {
        self.version.fetch_max(floor, AtomicOrdering::AcqRel);
    }

    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.inner.read().docs.len()
    }

    /// True if the collection holds no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn now(&self) -> f64 {
        *self.shared.clock.read()
    }

    /// Assign the `_id` (when missing) and the `DocId` an insert will
    /// use, so the journal records the document the store will hold.
    fn materialize(&self, mut doc: Value) -> Result<Option<(DocId, Value)>> {
        if let Some(refused) = refusal(&doc) {
            return Err(refused);
        }
        let id_num = self.next_id.fetch_add(1, AtomicOrdering::Relaxed);
        assign_id(&mut doc, id_num);
        Ok(Some((id_num, doc)))
    }

    fn journal_insert<'a>(&'a self, doc: &'a Value) -> JournalRef<'a> {
        JournalOp::Insert {
            collection: &self.name,
            doc,
        }
    }

    /// Insert one document. A missing `_id` is assigned automatically.
    /// Returns the document's `_id`.
    pub fn insert_one(&self, doc: Value) -> Result<Value> {
        let ids = self.insert_many(vec![doc])?;
        Ok(ids.into_iter().next().unwrap_or(Value::Null))
    }

    /// Insert many documents; stops at the first error, leaving the
    /// documents before it inserted. On a journaled database the batch
    /// is one journal guard hold and one barrier, and the document that
    /// failed to apply stays in the log (it replays as the same failure).
    ///
    /// Into an empty collection the batch is one bulk build
    /// ([`bulk_build`](Self::bulk_build)), which ends in the state, the
    /// ids, the error and the log one-by-one insertion would have, and
    /// sorts keys it borrows: it clones only what the store keeps. If a
    /// concurrent write got in first, the batch is inserted one by one
    /// after all; emptiness decides, nothing else.
    ///
    /// The ids the call returns are cloned in one run, not one per
    /// document between the key, index entries and `Arc<Document>` the
    /// store keeps for it: the caller drops them together, and freed
    /// between kept chunks each would stay a hole for the life of the
    /// store (DESIGN §10, "The heap a load leaves"). The build clones
    /// them in its walk; one by one, before the commit loop, a missing
    /// `_id`'s slot filled once assigned (that rare path may interleave).
    pub fn insert_many(&self, docs: Vec<Value>) -> Result<Vec<Value>> {
        let _t = self.shared.profiler.start(&self.name, OpKind::Insert);
        let docs = if docs.is_empty() || !self.is_empty() {
            docs
        } else {
            match self.bulk_build(docs, true) {
                Bulk::Built(built) => return built.map_err(|r| r.error),
                Bulk::Declined(docs) => docs,
            }
        };
        let mut ids: Vec<Value> = docs.iter().map(id_of).collect();
        let mut slots = ids.iter_mut();
        self.shared.commit(
            self,
            docs,
            |_, doc| self.materialize(doc),
            |coll, (_, doc), append| append(coll.journal_insert(doc)),
            |inner, (id_num, doc)| {
                // An explicit `"_id": null` reads as null again.
                if let Some(slot) = slots.next().filter(|slot| slot.is_null()) {
                    *slot = id_of(&doc);
                }
                Self::raw_insert(inner, id_num, doc)
            },
        )?;
        Ok(ids)
    }

    /// Fill this empty collection with `docs` in one apply, instead of
    /// an insert each: what `insert_many` into an empty collection does,
    /// and recovery with a snapshot's run of documents. It reaches the
    /// state inserting them one by one in order would: `DocId`s `first..`
    /// from `next_id`, an `_id` assigned where one is missing, of keys
    /// that compare equal (`1`, `1.0`) the lowest `DocId`'s value kept,
    /// and the `_id`s if `returning_ids` (not a snapshot's). Where that
    /// would stop — a document `materialize` refuses, a duplicate `_id`,
    /// a unique-index collision found on the sorted runs — the documents
    /// before it are built and the error names its position.
    ///
    /// `docs`, `by_id` and every index are built from `(key, DocId)`
    /// entries borrowed from the documents and sorted on the calling
    /// thread, with no lock held (DESIGN §10). The apply goes through
    /// [`Shared::commit`], which on a journaled database logs one
    /// `Insert` record per document first — the records one-by-one
    /// insertion writes, the failing document's included when it is an
    /// object. If the collection is no longer what the build read when
    /// the commit takes its lock — empty, with the same indexes, and no
    /// id handed out since — nothing is applied or logged and the
    /// documents come back as they came. No profiler sample is taken:
    /// `insert_many` takes its own, and nobody issues a snapshot's.
    pub(crate) fn bulk_build(&self, docs: Vec<Value>, returning_ids: bool) -> Bulk {
        let (built, ids) = match self.build(docs, returning_ids) {
            Ok(built) => built,
            Err(error) => return Bulk::Built(Err(Refused { at: 0, error })),
        };
        let at = built.docs.len();
        let declined = Cell::new(None);
        let applied = self.shared.commit(
            self,
            Some(built),
            |inner, built| {
                if self.claims(inner, &built) {
                    Ok(Some(built))
                } else {
                    declined.set(Some(built));
                    Ok(None)
                }
            },
            |coll, built, append| {
                built
                    .journaled()
                    .try_for_each(|doc| append(coll.journal_insert(doc)))
            },
            |inner, built| built.install(inner),
        );
        if let Some(built) = declined.into_inner() {
            return Bulk::Declined(built.into_docs());
        }
        Bulk::Built(applied.map(|_| ids).map_err(|error| Refused { at, error }))
    }

    /// The half of a bulk build that runs before its commit: the ids
    /// read from `next_id`, the sorted runs, where insertion stops, the
    /// structures the collection will keep (refused whole if a run would
    /// pass its offsets, [`Index::fill`]), and the `_id`s it returns.
    ///
    /// It clones only what the store keeps and those `_id`s (DESIGN §10,
    /// "The heap a load leaves"). One walk over the documents pushes each
    /// one's `_id` entry and every index's entries, all borrowed from it,
    /// and clones its `_id`: the walk keeps nothing else, so the clones
    /// are one run. The sorts compare inline prefixes and read a document
    /// only on a tie the prefix cannot settle. Each index then writes its
    /// run, and, the index entries freed (a lower peak), the `_id` map
    /// its own; the `Arc<Document>`s come last.
    fn build(&self, mut docs: Vec<Value>, returning_ids: bool) -> Result<(Built, Vec<Value>)> {
        let n = docs.len();
        // The counter publishes nothing: the commit's lock orders the
        // build against every other write (see `claims`).
        let first = self.next_id.load(AtomicOrdering::Relaxed);
        let accepted = docs.iter().position(|d| refusal(d).is_some()).unwrap_or(n);
        let invalid = (docs.get(accepted).and_then(refusal)).map(|e| (first + accepted as u64, e));
        // Made first and kept: a spec list freed after the build would be a hole (DESIGN §10).
        let mut indexes: Vec<Index> = (self.inner.read().indexes.iter())
            .map(|ix| Index::new(ix.path.as_str(), ix.unique))
            .collect();
        let mut assigned = Vec::new();
        let mut ids = Vec::with_capacity(if returning_ids { n } else { 0 });
        let entries = || Vec::with_capacity(accepted);
        let mut id_keys: Vec<Entry<'_>> = entries();
        let mut keyed: Vec<Vec<_>> = indexes.iter().map(|_| entries()).collect();
        for ((at, id), doc) in (0..).zip(first..).zip(docs.iter_mut().take(accepted)) {
            if assign_id(doc, id) {
                assigned.push(at);
            }
            ids.extend(returning_ids.then(|| id_of(doc)));
            id_keys.push(Entry::new(doc.get("_id").unwrap_or(&Value::Null), id, 0));
            // Each index's keys, in path-walk order, numbered.
            for (ix, entries) in indexes.iter().zip(&mut keyed) {
                let mut place = 0;
                for_each_key(doc, &ix.path, |key| {
                    entries.push(Entry::new(key, id, place));
                    place += 1;
                });
            }
        }
        id_keys.sort_unstable_by(Entry::order);
        (keyed.iter_mut()).for_each(|entries| entries.sort_unstable_by(Entry::order));
        // Where one-by-one insertion stops: the lowest failing DocId,
        // and of one document's failures the check `raw_insert` makes
        // first (`_id`, then the indexes in order).
        let taken = first_collision(&id_keys).map(|key| (key.id, duplicate_id(key.value)));
        let collisions = indexes.iter().zip(&keyed).filter(|(ix, _)| ix.unique);
        let collided = collisions.filter_map(|(ix, entries)| {
            let key = first_collision(entries)?;
            Some((key.id, unique_violation(&ix.path, key.value)))
        });
        let stop = taken
            .into_iter()
            .chain(collided)
            .chain(invalid)
            .min_by_key(|(id, _)| *id);
        if let Some((end, _)) = &stop {
            // The documents from the failing one on: built into nothing.
            id_keys.retain(|key| key.id < *end);
            for entries in &mut keyed {
                entries.retain(|key| key.id < *end);
            }
        }
        for (ix, sorted) in indexes.iter_mut().zip(&keyed) {
            ix.fill(sorted)?;
        }
        drop(keyed);
        let mut by_id = Index::new("_id", true);
        by_id.fill(&id_keys)?;
        drop(id_keys);
        let end = stop.as_ref().map_or(n, |(end, _)| (end - first) as usize);
        let tail = docs.split_off(end);
        let built = Built {
            first,
            assigned,
            indexes,
            by_id,
            docs: (first..).zip(docs.into_iter().map(Arc::new)).collect(),
            tail,
            stop: stop.map(|(_, error)| error),
        };
        Ok((built, ids))
    }

    /// Under the commit's lock: is the collection still what `built`
    /// was built for — empty, the same indexes, and no id handed out
    /// since it read `next_id`? If so, take the ids it uses.
    fn claims(&self, inner: &Inner, built: &Built) -> bool {
        inner.docs.is_empty()
            && (inner.indexes.iter().map(|ix| (&ix.path, ix.unique)))
                .eq(built.indexes.iter().map(|ix| (&ix.path, ix.unique)))
            && self
                .next_id
                .compare_exchange(
                    built.first,
                    built.first + built.taken(),
                    AtomicOrdering::Relaxed,
                    AtomicOrdering::Relaxed,
                )
                .is_ok()
    }

    /// Find documents matching a JSON filter with default options.
    pub fn find(&self, filter: &Value) -> Result<Docs> {
        self.find_with(filter, &FindOptions::all())
    }

    /// Find with sort/skip/limit/projection.
    ///
    /// Returns shared documents ([`Docs`]): no deep copy is made on the
    /// way out. The options are compiled once per query — sort keys and
    /// projection paths are pre-split before the first document is
    /// touched — and a projection materializes only the projected fields
    /// from the borrowed documents.
    ///
    /// An unsorted find takes the pushdown path: each matching document
    /// is projected (if asked) in the same pass that matched it, and a
    /// skip/limit window ends the scan as soon as it is full (see
    /// [`filter_matches`]). A sorted find must keep the full source
    /// documents until after ordering (the sort keys need not be
    /// projected fields), so it projects the ordered window afterwards.
    pub fn find_with(&self, filter: &Value, opts: &FindOptions) -> Result<Docs> {
        let _t = self.shared.profiler.start(&self.name, OpKind::Find);
        let cf = Filter::parse(filter)?.compile();
        let copts = opts.compile();
        let candidates = &[self.candidates(&cf)];
        if !copts.has_sort() {
            let window = (copts.skip(), copts.limit());
            return Ok(match copts.projection() {
                Some(proj) => filter_matches(candidates, &cf, window, |d| projected_doc(proj, d)),
                None => filter_matches(candidates, &cf, window, Arc::clone),
            });
        }
        let mut out: Docs = filter_matches(candidates, &cf, UNBOUNDED, Arc::clone);
        copts.apply_order(&mut out);
        Ok(match copts.projection() {
            // The ordered window through the same scan: every row of it
            // matches, and the sink projects it.
            Some(proj) => {
                let window = &[out.into()];
                let every = CompiledFilter::default();
                filter_matches(window, &every, UNBOUNDED, |d| projected_doc(proj, d))
            }
            None => out,
        })
    }

    /// An unsorted, windowed, projected find that returns each match
    /// twice over: the handle of the stored document it matched, and
    /// the projected row, as a plain [`Value`] — both made in the one
    /// pass that matched the document, while its lines are warm. What a
    /// response and a cache entry need of a projected read (the rows to
    /// send, the handles to re-project from later) without an `Arc` per
    /// row or a second materialization. `rows[i]` is what
    /// [`find_with`](Self::find_with) with the same projection and
    /// window returns at `i`; `docs[i]` what it returns there without
    /// the projection.
    pub fn find_rows(
        &self,
        filter: &Value,
        proj: &CompiledProjection,
        skip: usize,
        limit: Option<usize>,
    ) -> Result<(Docs, Vec<Value>)> {
        let _t = self.shared.profiler.start(&self.name, OpKind::Find);
        let cf = Filter::parse(filter)?.compile();
        let candidates = &[self.candidates(&cf)];
        Ok(filter_matches(candidates, &cf, (skip, limit), |d| {
            handle_and_row(proj, d)
        }))
    }

    /// First matching document, if any.
    pub fn find_one(&self, filter: &Value) -> Result<Option<Arc<Document>>> {
        Ok(self.find_with(filter, &FindOptions::all().limit(1))?.pop())
    }

    /// Fetch by `_id` directly (a shared snapshot, not a copy).
    pub fn get(&self, id: &Value) -> Option<Arc<Document>> {
        let inner = self.inner.read();
        let did = inner.by_id.lowest(&key::encoded(id))?;
        inner.docs.get(&did).cloned()
    }

    /// Count documents matching the filter: the match scan with a sink
    /// that keeps nothing (see [`Count`]). A COLLSCAN counts through the
    /// shared segment, so no handle is cloned but a pruned scan's
    /// survivors.
    pub fn count(&self, filter: &Value) -> Result<usize> {
        let _t = self.shared.profiler.start(&self.name, OpKind::Count);
        let cf = Filter::parse(filter)?.compile();
        if cf.is_empty() {
            return Ok(self.len());
        }
        let candidates = &[self.candidates(&cf)];
        let Count(n) = filter_matches(candidates, &cf, UNBOUNDED, |_| ());
        Ok(n)
    }

    /// Distinct values at `path` among documents matching `filter`.
    pub fn distinct(&self, path: &str, filter: &Value) -> Result<Vec<Value>> {
        let _t = self.shared.profiler.start(&self.name, OpKind::Find);
        let cf = Filter::parse(filter)?.compile();
        let path = Path::new(path);
        let mut set = BTreeSet::new();
        let candidates = &[self.candidates(&cf)];
        // The keys an index on `path` would hold, visited in the scan.
        let () = filter_matches(candidates, &cf, UNBOUNDED, |doc| {
            for_each_key(doc, &path, |key| {
                set.insert(OrderedValue(key.clone()));
            });
        });
        Ok(set.into_iter().map(|k| k.0).collect())
    }

    /// Update all documents matching `filter`.
    pub fn update_many(&self, filter: &Value, update: &Value) -> Result<UpdateResult> {
        self.update(filter, update, true)
    }

    /// Update the first matching document.
    pub fn update_one(&self, filter: &Value, update: &Value) -> Result<UpdateResult> {
        self.update(filter, update, false)
    }

    fn journal_update<'a>(
        &'a self,
        filter: &'a Value,
        update: &'a Value,
        many: bool,
    ) -> JournalRef<'a> {
        JournalOp::Update {
            collection: &self.name,
            filter,
            update,
            many,
        }
    }

    /// Update every match (`many`) or the first one.
    pub(crate) fn update(
        &self,
        filter: &Value,
        update: &Value,
        many: bool,
    ) -> Result<UpdateResult> {
        let _t = self.shared.profiler.start(&self.name, OpKind::Update);
        let cf = Filter::parse(filter)?.compile();
        let u = Update::parse(update)?;
        let now = self.now();
        self.shared
            .commit_one(self, self.journal_update(filter, update, many), |inner| {
                Self::raw_update(inner, &cf, &u, now, many)
            })
    }

    /// Update one; insert a new document from the update if none
    /// matched. The journal records the decided form: the update, or
    /// the insert of the materialized document (filter seed plus
    /// applied update, `_id` assigned).
    pub fn upsert(&self, filter: &Value, update: &Value) -> Result<UpdateResult> {
        let _t = self.shared.profiler.start(&self.name, OpKind::Update);
        let f = Filter::parse(filter)?;
        let cf = f.compile();
        let u = Update::parse(update)?;
        let now = self.now();
        let out = self.shared.commit(
            self,
            Some(()),
            // `None` updates in place; `Some` inserts the seed.
            |inner, ()| {
                if Self::matching(inner, &cf).next().is_some() {
                    return Ok(Some(None));
                }
                let mut seed = filter_equality_seed(&f);
                u.apply(&mut seed, now, true)?;
                self.materialize(seed).map(Some)
            },
            |coll, seed, append| {
                append(match seed {
                    None => coll.journal_update(filter, update, false),
                    Some((_, doc)) => coll.journal_insert(doc),
                })
            },
            |inner, seed| match seed {
                None => Self::raw_update(inner, &cf, &u, now, false),
                Some((id_num, doc)) => {
                    let upserted_id = Some(id_of(&doc));
                    Self::raw_insert(inner, id_num, doc)?;
                    Ok(UpdateResult {
                        upserted: true,
                        upserted_id,
                        ..UpdateResult::default()
                    })
                }
            },
        )?;
        Ok(out.unwrap_or_default())
    }

    /// Atomically find one matching document, apply `update` to it, and
    /// return it. `return_new` picks the post-update document. When `sort`
    /// is given, the first document under that order is taken — this is
    /// the queue-pop primitive. The journal records an `_id`-targeted
    /// `update_one`: replay must touch exactly the document the live
    /// sort selected, without re-running the sort (`_id` is immutable
    /// through updates, so the pre-image's id addresses it).
    pub fn find_one_and_update(
        &self,
        filter: &Value,
        update: &Value,
        sort: Option<&FindOptions>,
        return_new: bool,
    ) -> Result<Option<Arc<Document>>> {
        let _t = self
            .shared
            .profiler
            .start(&self.name, OpKind::FindAndModify);
        let cf = Filter::parse(filter)?.compile();
        let u = Update::parse(update)?;
        let sort = sort.map(FindOptions::compile);
        let now = self.now();
        self.shared.commit(
            self,
            Some(()),
            // The `_id` filter the journal records rides with the match.
            |inner, ()| {
                Ok(
                    Self::first_match(inner, &cf, sort.as_ref()).map(|(id, old)| {
                        let target = json!({ "_id": id_of(&old) });
                        (id, old, target)
                    }),
                )
            },
            |coll, (_, _, target), append| append(coll.journal_update(target, update, false)),
            |inner, (id, old, _)| {
                let new = Self::raw_modify(inner, id, &old, &u, now)?;
                Ok(if return_new { new.unwrap_or(old) } else { old })
            },
        )
    }

    /// Delete all documents matching the filter; returns how many.
    pub fn delete_many(&self, filter: &Value) -> Result<usize> {
        self.delete(filter, true)
    }

    /// Delete the first matching document. Returns true if one was removed.
    pub fn delete_one(&self, filter: &Value) -> Result<bool> {
        Ok(self.delete(filter, false)? > 0)
    }

    /// Delete every match (`many`) or the first one; returns how many.
    pub(crate) fn delete(&self, filter: &Value, many: bool) -> Result<usize> {
        let _t = self.shared.profiler.start(&self.name, OpKind::Delete);
        let cf = Filter::parse(filter)?.compile();
        self.shared.commit_one(
            self,
            JournalOp::Delete {
                collection: &self.name,
                filter,
                many,
            },
            |inner| Ok(Self::raw_delete(inner, &cf, many)),
        )
    }

    /// Create a secondary index on `path`. Existing documents are indexed
    /// immediately; fails atomically on unique violation. (Journaled
    /// unconditionally — replaying an index that already exists is a
    /// no-op.)
    pub fn create_index(&self, path: &str, unique: bool) -> Result<()> {
        self.shared.commit_one(
            self,
            JournalOp::CreateIndex {
                collection: &self.name,
                path,
                unique,
            },
            |inner| {
                if inner.indexes.iter().any(|ix| ix.path.as_str() == path) {
                    return Ok(());
                }
                let mut ix = Index::new(path, unique);
                for (id, doc) in &inner.docs {
                    ix.insert(*id, doc)?;
                }
                inner.indexes.push(ix);
                // Plans can change when an index appears, so cached
                // results keyed to the old generation must not outlive it.
                inner.dirty = true;
                Ok(())
            },
        )
    }

    /// Drop the index on `path`.
    pub fn drop_index(&self, path: &str) -> Result<()> {
        self.shared.commit_one(
            self,
            JournalOp::DropIndex {
                collection: &self.name,
                path,
            },
            |inner| {
                let before = inner.indexes.len();
                inner.indexes.retain(|ix| ix.path.as_str() != path);
                if inner.indexes.len() == before {
                    return Err(StoreError::NoSuchIndex(path.into()));
                }
                inner.dirty = true;
                Ok(())
            },
        )
    }

    /// Remove every document (index definitions survive).
    pub fn clear(&self) -> Result<()> {
        self.shared.commit_one(
            self,
            JournalOp::Clear {
                collection: &self.name,
            },
            |inner| {
                inner.docs.clear();
                inner.by_id = Index::new("_id", true);
                for ix in &mut inner.indexes {
                    *ix = Index::new(ix.path.as_str(), ix.unique);
                }
                inner.dirty = true;
                Ok(())
            },
        )
    }

    /// `(path, unique)` of the existing indexes, in creation order.
    /// Snapshots persist these so recovery rebuilds the same plans and
    /// unique constraints, not just the same documents.
    pub fn index_specs(&self) -> Vec<(String, bool)> {
        Self::specs_of(&self.inner.read())
    }

    fn specs_of(inner: &Inner) -> Vec<(String, bool)> {
        inner
            .indexes
            .iter()
            .map(|ix| (ix.path.to_string(), ix.unique))
            .collect()
    }

    /// What a checkpoint keeps of this collection, under one read-lock
    /// hold: the index definitions and this generation's scan segment —
    /// every document handle in store order, shared with the scans of
    /// the generation (one `Arc` bump if a scan built it already, one
    /// per document otherwise). Nothing is serialized here.
    pub(crate) fn capture(&self) -> (Vec<(String, bool)>, Arc<Segment>) {
        let inner = self.inner.read();
        (Self::specs_of(&inner), Arc::clone(Self::segment_of(&inner)))
    }

    /// This generation's scan segment, built on first use.
    fn segment_of(inner: &Inner) -> &Arc<Segment> {
        inner
            .segment
            .get_or_init(|| Arc::new(Segment::new(inner.docs.values().cloned().collect())))
    }

    /// Paths of the existing indexes.
    pub fn index_paths(&self) -> Vec<String> {
        self.inner
            .read()
            .indexes
            .iter()
            .map(|ix| ix.path.to_string())
            .collect()
    }

    /// The first `n` documents in store order and the collection's size,
    /// under one read-lock hold: what schema inference needs, without
    /// [`Collection::dump`]'s handle per document.
    pub fn sample(&self, n: usize) -> (Docs, usize) {
        let inner = self.inner.read();
        let docs = inner.docs.values().take(n).cloned().collect();
        (docs, inner.docs.len())
    }

    /// Snapshot every document (used by MapReduce and persistence). The
    /// snapshot shares ownership with the store: cost is one `Arc` bump
    /// per document, not a deep copy.
    pub fn dump(&self) -> Docs {
        self.inner.read().docs.values().cloned().collect()
    }

    /// Query-plan diagnostics, like MongoDB's `explain()`: which access
    /// path a filter uses, how many documents it must examine, and every
    /// alternative plan the cost-based planner considered. The reported
    /// plan is the one `find`/`count` actually execute (both call the
    /// same planner).
    pub fn explain(&self, filter: &Value) -> Result<Value> {
        let cf = Filter::parse(filter)?.compile();
        let inner = self.inner.read();
        let (plan, considered) = Self::plan_query(&inner, &cf);
        let candidates = Self::plan_read(&inner, &plan, false);
        let considered: Vec<Value> = considered
            .iter()
            .map(|p| {
                json!({
                    "plan": p.kind.name(),
                    "index": p.index(),
                    "cost": p.cost,
                })
            })
            .collect();
        Ok(serde_json::json!({
            "collection": self.name,
            "plan": plan.kind.name(),
            "index": plan.index(),
            "docs_examined": candidates.examined(),
            "docs_total": inner.docs.len(),
            "column_pruned": candidates.pruned_by(&cf),
            "filter_paths": cf.touched_paths(),
            "considered": considered,
        }))
    }

    // ---- internals ----

    /// Cost-based plan selection: cost every applicable access path
    /// (index estimates are set-size counts, no candidate
    /// materialization) and keep the cheapest; ties prefer equality over
    /// `$in` over range over scan, then earlier-created indexes. No index
    /// probe is offered for an array operand, which a scan answers
    /// (DESIGN §10). Returns the winner plus everything considered, for
    /// `explain()`.
    fn plan_query<'a>(inner: &'a Inner, f: &'a CompiledFilter) -> (Plan<'a>, Vec<Plan<'a>>) {
        if let Some(id) = f.equality_on("_id") {
            let found = inner.by_id.lowest(&key::encoded(id));
            let plan = Plan {
                kind: PlanKind::IdLookup,
                access: Access::Id(found),
                cost: usize::from(found.is_some()),
            };
            return (plan, vec![plan]);
        }
        let mut considered = Vec::new();
        for ix in &inner.indexes {
            let path = ix.path.as_str();
            let probes = [
                (
                    PlanKind::IndexEq,
                    f.equality_on(path).map(slice::from_ref).map(Probe::Keys),
                ),
                (PlanKind::IndexIn, f.in_on(path).map(Probe::Keys)),
                (
                    PlanKind::IndexRange,
                    f.range_on(path).map(|(lo, hi)| ix.range_probe(lo, hi)),
                ),
            ];
            for (kind, probe) in probes {
                if let Some(probe) = probe.filter(Probe::indexable) {
                    let (access, cost) = (Access::Index(ix, probe), ix.estimate(&probe));
                    considered.push(Plan { kind, access, cost });
                }
            }
        }
        let scan = Plan {
            kind: PlanKind::Collscan,
            access: Access::Scan,
            cost: inner.docs.len(),
        };
        considered.push(scan);
        let best = considered
            .iter()
            .min_by_key(|p| (p.cost, p.kind))
            .map_or(scan, |p| *p);
        (best, considered)
    }

    /// Pick what the chosen `plan` reads — the one place a read chooses
    /// its candidates, under the read lock the plan was chosen under.
    /// An `_id` or index plan clones the handles of its ids; a COLLSCAN
    /// clones one `Arc` of the generation's scan segment instead
    /// (building it, one handle per document, if this is the first since
    /// a write). `explain` passes `scan: false` and builds nothing: it
    /// reads through the segment only if a scan has left one. Nothing is
    /// matched under the lock, so writers are never blocked behind a
    /// large scan.
    fn plan_read(inner: &Inner, plan: &Plan<'_>, scan: bool) -> Candidates {
        match plan.ids() {
            Some(ids) => (ids.into_iter())
                .filter_map(|id| inner.docs.get(&id).cloned())
                .collect::<Docs>()
                .into(),
            None if scan || inner.segment.get().is_some() => {
                Candidates::scan(Arc::clone(Self::segment_of(inner)))
            }
            None => Candidates::unscanned(inner.docs.len()),
        }
    }

    /// The rows a read of `cf` must run the filter over, column-pruned
    /// after the lock is released (DESIGN §16). Every find, count,
    /// distinct and shard scatter starts here.
    pub(crate) fn candidates(&self, cf: &CompiledFilter) -> Candidates {
        let (kind, candidates) = {
            let inner = self.inner.read();
            let (plan, _) = Self::plan_query(&inner, cf);
            (plan.kind, Self::plan_read(&inner, &plan, true))
        };
        self.shared.profiler.bump(kind.counter());
        candidates.prune(cf, &self.shared)
    }

    /// Every match of `cf` with its `DocId`, in store order, through the
    /// plan the planner chooses — the one candidate path of the write
    /// side, which runs under the write lock. Lazy: a consumer that
    /// wants one match reads no further.
    fn matching<'a>(
        inner: &'a Inner,
        cf: &'a CompiledFilter,
    ) -> impl Iterator<Item = (DocId, &'a Arc<Document>)> + 'a {
        let ids = Self::plan_query(inner, cf).0.ids();
        // A scan (no ids) walks the documents; any other plan looks its
        // ids up.
        let scan = ids.is_none().then_some(&inner.docs).into_iter().flatten();
        let looked_up = (ids.into_iter().flatten()).filter_map(|id| inner.docs.get_key_value(&id));
        (looked_up.chain(scan))
            .map(|(id, doc)| (*id, doc))
            .filter(|(_, doc)| cf.matches(doc))
    }

    // ---- raw mutations: reached only through `Shared::commit` ----

    /// The `_id` is checked first, so its duplicate names the `_id`; its
    /// one encoding is the key the `_id` map keeps.
    fn raw_insert(inner: &mut Inner, id_num: DocId, doc: Value) -> Result<()> {
        let id = doc.get("_id").unwrap_or(&Value::Null);
        let id_key = key::encoded(id);
        if inner.by_id.lowest(&id_key).is_some() {
            return Err(duplicate_id(id));
        }
        // Unique-index check before any mutation.
        for ix in &inner.indexes {
            ix.check_unique(id_num, &doc, None)?;
        }
        for ix in &mut inner.indexes {
            ix.insert(id_num, &doc)?;
        }
        inner.by_id.insert_key(id_key, id_num);
        inner.docs.insert(id_num, Arc::new(doc));
        inner.dirty = true;
        Ok(())
    }

    /// The first match of `cf` under `sort` (store order without one,
    /// and among equals).
    fn first_match(
        inner: &Inner,
        cf: &CompiledFilter,
        sort: Option<&CompiledFindOptions>,
    ) -> Option<(DocId, Arc<Document>)> {
        let mut matches = Self::matching(inner, cf);
        let (id, doc) = match sort {
            None => matches.next()?,
            Some(copts) => matches.min_by(|a, b| copts.cmp_docs(a.1, b.1))?,
        };
        Some((id, Arc::clone(doc)))
    }

    /// Copy-on-write `u` onto document `id` (readers may hold `old`, so
    /// mutate a fresh copy and swap it in rather than writing through).
    /// Returns the new document, or `None` when the update changed
    /// nothing.
    fn raw_modify(
        inner: &mut Inner,
        id: DocId,
        old: &Arc<Document>,
        u: &Update,
        now: f64,
    ) -> Result<Option<Arc<Document>>> {
        let mut new_doc = (**old).clone();
        u.apply(&mut new_doc, now, false)?;
        if new_doc == **old {
            return Ok(None);
        }
        if let Some(refused) = refusal(&new_doc) {
            return Err(refused);
        }
        // The `_id` map keys each document by its `_id`'s encoding.
        if !key::same_id(old, &new_doc) {
            return Err(StoreError::BadUpdate(format!(
                "_id is immutable: the update would change the _id of {}",
                id_of(old)
            )));
        }
        Self::reindex(inner, id, old, &new_doc)?;
        let new = Arc::new(new_doc);
        inner.docs.insert(id, Arc::clone(&new));
        inner.dirty = true;
        Ok(Some(new))
    }

    /// Update every match (`many`) or the first, collected before the
    /// first is modified.
    fn raw_update(
        inner: &mut Inner,
        cf: &CompiledFilter,
        u: &Update,
        now: f64,
        many: bool,
    ) -> Result<UpdateResult> {
        let matched: Vec<(DocId, Arc<Document>)> = Self::matching(inner, cf)
            .take(if many { usize::MAX } else { 1 })
            .map(|(id, doc)| (id, Arc::clone(doc)))
            .collect();
        let mut res = UpdateResult {
            matched: matched.len(),
            ..UpdateResult::default()
        };
        for (id, old) in matched {
            if Self::raw_modify(inner, id, &old, u, now)?.is_some() {
                res.modified += 1;
            }
        }
        Ok(res)
    }

    /// Delete every match (`many`) or the first, collected before the
    /// first is removed; returns how many.
    fn raw_delete(inner: &mut Inner, cf: &CompiledFilter, many: bool) -> usize {
        let doomed: Vec<DocId> = Self::matching(inner, cf)
            .take(if many { usize::MAX } else { 1 })
            .map(|(id, _)| id)
            .collect();
        for id in &doomed {
            if let Some(doc) = inner.docs.remove(id) {
                inner.by_id.remove(*id, &doc);
                for ix in &mut inner.indexes {
                    ix.remove(*id, &doc);
                }
            }
        }
        inner.dirty |= !doomed.is_empty();
        doomed.len()
    }

    fn reindex(inner: &mut Inner, id: DocId, old: &Value, new: &Value) -> Result<()> {
        // Only the indexes whose keys changed. Check unique constraints
        // first so a failed update leaves them untouched; the document's
        // own old entries don't count.
        let moved = |ix: &Index| !ix.keeps_keys(old, new);
        for ix in inner.indexes.iter().filter(|ix| moved(ix)) {
            ix.check_unique(id, new, Some(id))?;
        }
        for ix in inner.indexes.iter_mut().filter(|ix| moved(ix)) {
            ix.remove(id, old);
            ix.insert(id, new)?;
        }
        Ok(())
    }
}

/// A skip/limit window that keeps every match.
pub(crate) const UNBOUNDED: (usize, Option<usize>) = (0, None);

/// The match-evaluation scan: run `cf` over one or more candidate sets
/// (a collection's, or one per shard) and hand each match to `sink`, in
/// set order then store order. The sink says what a match becomes, in
/// the pass that matched it — the document's cache lines are still warm
/// then, where re-walking the matched set afterwards pays a second pass
/// of memory stalls over documents that long since fell out of cache.
/// Four are in use: `Arc::clone` keeps the *handle* (a pointer bump;
/// documents are never copied), [`projected_doc`] makes the *projected
/// document* (of a match, or of a sorted find's ordered window under a
/// filter that matches everything), [`handle_and_row`] both the handle
/// and the projected row, and `|_| ()` keeps *nothing*. The results are
/// collected into `C`: a vector, a pair of them for a sink that makes
/// pairs, or a [`Count`].
///
/// `window` is (skip, limit) over the match stream. The scan runs on the
/// caller's thread and lazily, so a bounded window touches nothing past
/// the row that fills it. It never fans out: on the task queue, the one
/// workload whose scans were long enough to, two threads splitting a
/// scan lost to one (DESIGN §14).
pub(crate) fn filter_matches<T, C: FromIterator<T>>(
    sets: &[Candidates],
    cf: &CompiledFilter,
    (skip, limit): (usize, Option<usize>),
    sink: impl FnMut(&Arc<Document>) -> T,
) -> C {
    sets.iter()
        .flat_map(Candidates::iter)
        .filter(|d| cf.matches(d))
        .skip(skip)
        .take(limit.unwrap_or(usize::MAX))
        .map(sink)
        .collect()
}

/// What a scan whose sink keeps nothing collects into: how many rows
/// matched. `count` is [`filter_matches`] with this collector, not a scan
/// of its own.
pub(crate) struct Count(pub(crate) usize);

impl FromIterator<()> for Count {
    fn from_iter<I: IntoIterator<Item = ()>>(matched: I) -> Self {
        Count(matched.into_iter().count())
    }
}

/// The *projected document* sink: what `find_with(project)` returns.
fn projected_doc(proj: &CompiledProjection, doc: &Arc<Document>) -> Arc<Document> {
    Arc::new(proj.project_one(doc))
}

/// The *handle + row* sink of [`Collection::find_rows`]: the served
/// miss path of a projected read.
fn handle_and_row(proj: &CompiledProjection, doc: &Arc<Document>) -> (Arc<Document>, Value) {
    (Arc::clone(doc), proj.project_one(doc))
}

/// A document's `_id` (`null` without one), cloned.
fn id_of(doc: &Value) -> Value {
    doc.get("_id").cloned().unwrap_or(Value::Null)
}

fn duplicate_id(id: &Value) -> StoreError {
    StoreError::DuplicateKey(format!("_id {id}"))
}

/// The `_id` a document that arrives without one gets from its `DocId`.
fn auto_id(id_num: DocId) -> Value {
    json!(format!("oid{:012x}", id_num))
}

/// Give an object without an `_id` the one its `DocId` names; true if
/// it needed one.
fn assign_id(doc: &mut Value, id_num: DocId) -> bool {
    let missing = doc.as_object_mut().filter(|obj| !obj.contains_key("_id"));
    missing
        .map(|obj| obj.insert_str("_id", auto_id(id_num)))
        .is_some()
}

/// Why `materialize` refuses `doc`, if it does: it is not an object, or
/// its `_id` is an array, which MongoDB refuses too (a lookup by an
/// element would miss the document a scan finds).
fn refusal(doc: &Value) -> Option<StoreError> {
    let why = match doc.get("_id") {
        _ if !doc.is_object() => "document must be a JSON object",
        Some(Value::Array(_)) => "_id cannot be an array",
        _ => return None,
    };
    Some(StoreError::InvalidDocument(why.into()))
}

/// What [`Collection::bulk_build`] made of a run of documents.
pub(crate) enum Bulk {
    /// Applied in one commit: every document, or those before the one
    /// where one-by-one insertion would have stopped; the `_id`s if asked.
    Built(std::result::Result<Vec<Value>, Refused>),
    /// The collection changed between the build and its commit: nothing
    /// applied or logged, the documents handed back as they came.
    Declined(Vec<Value>),
}

/// Why a bulk build stopped: the error, and the position in the run of
/// the document one-by-one insertion would have stopped at (the number
/// of documents built before it).
#[derive(Debug)]
pub(crate) struct Refused {
    pub(crate) at: usize,
    pub(crate) error: StoreError,
}

/// A bulk build before its commit: what the collection will keep, and
/// what the commit needs to check, log and apply it.
struct Built {
    /// The `next_id` the build read: its first `DocId`.
    first: DocId,
    /// Positions of the documents the build gave an `_id`.
    assigned: Vec<usize>,
    docs: BTreeMap<DocId, Arc<Document>>,
    by_id: Index,
    indexes: Vec<Index>,
    /// The documents from the one insertion stops at on, untouched
    /// (empty when none fails), and why it stops.
    tail: Vec<Value>,
    stop: Option<StoreError>,
}

impl Built {
    /// The failing document, if it reaches the log: one `materialize`
    /// accepts and the apply refuses.
    fn failing(&self) -> Option<&Value> {
        self.tail.first().filter(|doc| refusal(doc).is_none())
    }

    /// How many ids one-by-one insertion takes from `next_id`: one per
    /// document it materializes.
    fn taken(&self) -> u64 {
        (self.docs.len() + usize::from(self.failing().is_some())) as u64
    }

    /// The documents whose `Insert` records the commit logs, in order.
    fn journaled(&self) -> impl Iterator<Item = &Value> {
        self.docs.values().map(|doc| &**doc).chain(self.failing())
    }

    /// The apply: the built structures replace the empty ones.
    fn install(self, inner: &mut Inner) -> Result<()> {
        inner.dirty = !self.docs.is_empty();
        inner.docs = self.docs;
        inner.by_id = self.by_id;
        inner.indexes = self.indexes;
        self.stop.map_or(Ok(()), Err)
    }

    /// The documents as they came, for one-by-one insertion after all:
    /// the `_id`s the build assigned are taken out again.
    fn into_docs(self) -> Vec<Value> {
        let built = self.docs.into_values();
        let unshared = built.map(|doc| Arc::try_unwrap(doc).unwrap_or_else(|doc| (*doc).clone()));
        let mut docs: Vec<Value> = unshared.chain(self.tail).collect();
        for at in self.assigned {
            if let Some(obj) = docs.get_mut(at).and_then(Value::as_object_mut) {
                obj.remove("_id");
            }
        }
        docs
    }
}

/// For upserts, seed the new document from the filter's equality fields
/// (MongoDB does the same).
fn filter_equality_seed(f: &Filter) -> Value {
    let mut doc = json!({});
    for (path, preds) in &f.fields {
        for p in preds {
            if let crate::query::Predicate::Eq(v) = p {
                let _ = Path::new(path).set(&mut doc, v.clone());
            }
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn coll() -> Collection {
        Collection::new("test", Arc::new(Shared::new()))
    }

    #[test]
    fn insert_assigns_id() {
        let c = coll();
        let id = c.insert_one(json!({"a": 1})).unwrap();
        assert!(id.as_str().unwrap().starts_with("oid"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn insert_duplicate_id_rejected() {
        let c = coll();
        c.insert_one(json!({"_id": "x", "a": 1})).unwrap();
        assert!(matches!(
            c.insert_one(json!({"_id": "x", "a": 2})),
            Err(StoreError::DuplicateKey(_))
        ));
    }

    #[test]
    fn insert_many_keeps_the_documents_before_a_duplicate() {
        let c = coll();
        let docs = vec![
            json!({"_id": 1, "n": 0}),
            json!({"_id": 2, "n": 1}),
            json!({"_id": 1, "n": 2}), // taken by document 0
            json!({"_id": 4, "n": 3}),
        ];
        assert!(matches!(
            c.insert_many(docs),
            Err(StoreError::DuplicateKey(_))
        ));
        let kept: Vec<Value> = c.dump().iter().map(|d| d["n"].clone()).collect();
        assert_eq!(kept, [json!(0), json!(1)]);
        // One id per document materialized, the duplicate's included.
        assert_eq!(c.insert_one(json!({})).unwrap(), json!("oid000000000004"));
    }

    #[test]
    fn a_build_overtaken_by_a_write_hands_its_documents_back_as_they_came() {
        let c = coll();
        c.create_index("k", false).unwrap();
        let docs = vec![
            json!({"k": 1}),
            json!({"_id": "b", "k": 2}),
            json!({"k": 3}),
        ];
        let (built, _) = c.build(docs.clone(), true).unwrap();
        assert!(c.claims(&c.inner.read(), &built));
        // Claimed: the ids are taken, so a second claim fails.
        assert!(!c.claims(&c.inner.read(), &built));

        let (built, _) = c.build(docs.clone(), true).unwrap();
        c.insert_one(json!({"_id": "first"})).unwrap();
        assert!(!c.claims(&c.inner.read(), &built));
        assert_eq!(built.into_docs(), docs);
        // Not empty any more: one by one, after the document that got in.
        c.insert_many(docs).unwrap();
        assert_eq!(c.dump()[0]["_id"], json!("first"));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn insert_non_object_rejected() {
        let c = coll();
        assert!(c.insert_one(json!([1, 2])).is_err());
        assert!(c.insert_one(json!(42)).is_err());
    }

    #[test]
    fn find_by_filter() {
        let c = coll();
        c.insert_many(vec![
            json!({"el": ["Li", "O"], "n": 10}),
            json!({"el": ["Fe", "O"], "n": 200}),
            json!({"el": ["Li", "Fe", "O"], "n": 150}),
        ])
        .unwrap();
        let hits = c
            .find(&json!({"el": {"$all": ["Li", "O"]}, "n": {"$lte": 150}}))
            .unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn find_one_and_get() {
        let c = coll();
        let id = c.insert_one(json!({"a": 1})).unwrap();
        assert!(c.find_one(&json!({"a": 1})).unwrap().is_some());
        assert!(c.find_one(&json!({"a": 2})).unwrap().is_none());
        assert_eq!(c.get(&id).unwrap()["a"], json!(1));
    }

    #[test]
    fn update_many_and_one() {
        let c = coll();
        c.insert_many(vec![
            json!({"s": "R"}),
            json!({"s": "R"}),
            json!({"s": "C"}),
        ])
        .unwrap();
        let r = c
            .update_many(&json!({"s": "R"}), &json!({"$set": {"s": "D"}}))
            .unwrap();
        assert_eq!((r.matched, r.modified), (2, 2));
        assert_eq!(c.count(&json!({"s": "D"})).unwrap(), 2);

        let r = c
            .update_one(&json!({"s": "D"}), &json!({"$set": {"s": "E"}}))
            .unwrap();
        assert_eq!((r.matched, r.modified), (1, 1));
    }

    #[test]
    fn update_no_change_counts_matched_only() {
        let c = coll();
        c.insert_one(json!({"a": 1})).unwrap();
        let r = c
            .update_many(&json!({"a": 1}), &json!({"$set": {"a": 1}}))
            .unwrap();
        assert_eq!((r.matched, r.modified), (1, 0));
    }

    #[test]
    fn upsert_inserts_with_filter_seed() {
        let c = coll();
        let r = c
            .upsert(&json!({"key": "k1"}), &json!({"$set": {"v": 10}}))
            .unwrap();
        assert!(r.upserted);
        let doc = c.find_one(&json!({"key": "k1"})).unwrap().unwrap();
        assert_eq!(doc["v"], json!(10));
        // Second upsert updates in place.
        let r = c
            .upsert(&json!({"key": "k1"}), &json!({"$set": {"v": 20}}))
            .unwrap();
        assert!(!r.upserted);
        assert_eq!(c.count(&json!({"key": "k1"})).unwrap(), 1);
    }

    #[test]
    fn find_one_and_update_claims_atomically() {
        let c = coll();
        c.insert_many(vec![
            json!({"state": "READY", "prio": 2}),
            json!({"state": "READY", "prio": 9}),
        ])
        .unwrap();
        let claimed = c
            .find_one_and_update(
                &json!({"state": "READY"}),
                &json!({"$set": {"state": "RUNNING"}}),
                Some(&FindOptions::all().sort_by("prio", crate::cursor::SortDir::Desc)),
                true,
            )
            .unwrap()
            .unwrap();
        assert_eq!(claimed["prio"], json!(9));
        assert_eq!(claimed["state"], json!("RUNNING"));
        assert_eq!(c.count(&json!({"state": "READY"})).unwrap(), 1);
    }

    #[test]
    fn find_one_and_update_none_when_no_match() {
        let c = coll();
        let r = c
            .find_one_and_update(&json!({"x": 1}), &json!({"$set": {"y": 2}}), None, true)
            .unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn delete() {
        let c = coll();
        c.insert_many(vec![json!({"a": 1}), json!({"a": 1}), json!({"a": 2})])
            .unwrap();
        assert_eq!(c.delete_many(&json!({"a": 1})).unwrap(), 2);
        assert_eq!(c.len(), 1);
        assert!(c.delete_one(&json!({"a": 2})).unwrap());
        assert!(!c.delete_one(&json!({"a": 2})).unwrap());
    }

    #[test]
    fn index_accelerated_find_same_result() {
        let c = coll();
        for i in 0..100 {
            c.insert_one(json!({"n": i, "grp": i % 7})).unwrap();
        }
        let plain = c.find(&json!({"grp": 3})).unwrap();
        c.create_index("grp", false).unwrap();
        let indexed = c.find(&json!({"grp": 3})).unwrap();
        assert_eq!(plain.len(), indexed.len());

        let plain = c.find(&json!({"n": {"$gte": 20, "$lt": 30}})).unwrap();
        c.create_index("n", false).unwrap();
        let indexed = c.find(&json!({"n": {"$gte": 20, "$lt": 30}})).unwrap();
        assert_eq!(plain.len(), indexed.len());
        assert_eq!(indexed.len(), 10);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let c = coll();
        c.create_index("mps_id", true).unwrap();
        c.insert_one(json!({"mps_id": 1})).unwrap();
        assert!(c.insert_one(json!({"mps_id": 1})).is_err());
        assert_eq!(c.len(), 1);
        // Update into a conflict also rejected.
        c.insert_one(json!({"mps_id": 2})).unwrap();
        assert!(c
            .update_one(&json!({"mps_id": 2}), &json!({"$set": {"mps_id": 1}}))
            .is_err());
    }

    #[test]
    fn index_stays_consistent_through_updates_and_deletes() {
        let c = coll();
        c.create_index("k", false).unwrap();
        c.insert_one(json!({"_id": 1, "k": "a"})).unwrap();
        c.update_one(&json!({"_id": 1}), &json!({"$set": {"k": "b"}}))
            .unwrap();
        assert!(c.find(&json!({"k": "a"})).unwrap().is_empty());
        assert_eq!(c.find(&json!({"k": "b"})).unwrap().len(), 1);
        c.delete_many(&json!({"k": "b"})).unwrap();
        assert!(c.find(&json!({"k": "b"})).unwrap().is_empty());
    }

    #[test]
    fn distinct_values() {
        let c = coll();
        c.insert_many(vec![
            json!({"el": ["Li", "O"]}),
            json!({"el": ["Fe", "O"]}),
            json!({"el": ["Li"]}),
        ])
        .unwrap();
        let d = c.distinct("el", &json!({})).unwrap();
        assert_eq!(d, vec![json!("Fe"), json!("Li"), json!("O")]);
    }

    #[test]
    fn count_with_filter() {
        let c = coll();
        for i in 0..10 {
            c.insert_one(json!({ "n": i })).unwrap();
        }
        assert_eq!(c.count(&json!({})).unwrap(), 10);
        assert_eq!(c.count(&json!({"n": {"$lt": 5}})).unwrap(), 5);
        c.create_index("n", false).unwrap();
        assert_eq!(c.count(&json!({"n": {"$lt": 5}})).unwrap(), 5);
    }

    #[test]
    fn explain_reports_access_path() {
        let c = coll();
        for i in 0..50 {
            c.insert_one(json!({"_id": format!("d{i}"), "grp": i % 5, "n": i}))
                .unwrap();
        }
        // Full scan without indexes.
        let e = c.explain(&json!({"grp": 3})).unwrap();
        assert_eq!(e["plan"], "COLLSCAN");
        assert_eq!(e["docs_examined"], 50);
        // Index equality.
        c.create_index("grp", false).unwrap();
        let e = c.explain(&json!({"grp": 3})).unwrap();
        assert_eq!(e["plan"], "INDEX_EQ");
        assert_eq!(e["index"], "grp");
        assert_eq!(e["docs_examined"], 10);
        // Index range.
        c.create_index("n", false).unwrap();
        let e = c.explain(&json!({"n": {"$gte": 40}})).unwrap();
        assert_eq!(e["plan"], "INDEX_RANGE");
        assert_eq!(e["docs_examined"], 10);
        // Id lookup beats everything.
        let e = c.explain(&json!({"_id": "d7"})).unwrap();
        assert_eq!(e["plan"], "ID_LOOKUP");
        assert_eq!(e["docs_examined"], 1);
    }

    #[test]
    fn cost_based_planner_picks_most_selective_index() {
        let c = coll();
        // grp repeats every 3 docs (20 hits/value); n is unique. A mixed
        // equality+range filter must pick whichever access path examines
        // fewer documents, not whichever index was created first.
        for i in 0..60 {
            c.insert_one(json!({"grp": i % 3, "n": i})).unwrap();
        }
        c.create_index("grp", false).unwrap();
        c.create_index("n", false).unwrap();

        let q = json!({"grp": 1, "n": {"$gte": 55}});
        let e = c.explain(&q).unwrap();
        assert_eq!(
            e["plan"], "INDEX_RANGE",
            "range (5 hits) beats eq (20): {e}"
        );
        assert_eq!(e["index"], "n");
        assert_eq!(e["docs_examined"], 5);
        let considered = e["considered"].as_array().unwrap();
        assert_eq!(considered.len(), 3, "eq + range + collscan: {e}");
        assert_eq!(c.find(&q).unwrap().len(), 2);

        // Flipped selectivity: now the equality side is cheaper.
        let q = json!({"grp": 1, "n": {"$gte": 0}});
        let e = c.explain(&q).unwrap();
        assert_eq!(e["plan"], "INDEX_EQ", "eq (20 hits) beats range (60): {e}");
        assert_eq!(e["index"], "grp");
    }

    #[test]
    fn in_queries_use_the_index() {
        let c = coll();
        for i in 0..50 {
            c.insert_one(json!({ "n": i })).unwrap();
        }
        c.create_index("n", false).unwrap();
        let q = json!({"n": {"$in": [3, 7, 7, 41]}});
        let e = c.explain(&q).unwrap();
        assert_eq!(e["plan"], "INDEX_IN");
        assert_eq!(e["index"], "n");
        assert_eq!(c.find(&q).unwrap().len(), 3);
    }

    /// Regression (PR 3 satellite): `explain` must report the plan the
    /// query actually executes. Verified via the per-plan profiler
    /// counters `scan` bumps on the access path it takes.
    #[test]
    fn explain_plan_matches_access_path_taken() {
        let c = coll();
        let prof = &c.shared.profiler;
        for i in 0..40 {
            c.insert_one(json!({"grp": i % 4, "n": i})).unwrap();
        }
        c.create_index("grp", false).unwrap();
        c.create_index("n", false).unwrap();
        let queries = [
            json!({"grp": 2, "n": {"$lt": 3}}), // mixed: range is cheaper
            json!({"grp": 2}),                  // plain equality
            json!({"n": {"$in": [1, 2]}}),      // $in probe
            json!({"free_text": "x"}),          // nothing indexed
            json!({"_id": "nope"}),             // id point lookup
        ];
        for q in queries {
            let cf = Filter::parse(&q).unwrap().compile();
            let kind = Collection::plan_query(&c.inner.read(), &cf).0.kind;
            let explained = c.explain(&q).unwrap();
            assert_eq!(explained["plan"], kind.name(), "{q}");
            let before = prof.counter(kind.counter());
            c.find(&q).unwrap();
            assert_eq!(
                prof.counter(kind.counter()),
                before + 1,
                "query {q}: explain chose {} but find took a different path",
                kind.name()
            );
        }
    }

    #[test]
    fn version_counter_tracks_writes() {
        let c = coll();
        let v0 = c.version();
        c.insert_one(json!({"_id": "a", "a": 1})).unwrap();
        assert!(c.version() > v0, "insert must bump the generation");
        let v1 = c.version();
        // A no-op update leaves cached reads valid.
        c.update_many(&json!({"a": 1}), &json!({"$set": {"a": 1}}))
            .unwrap();
        assert_eq!(c.version(), v1);
        c.update_many(&json!({"a": 1}), &json!({"$set": {"a": 2}}))
            .unwrap();
        assert!(c.version() > v1, "update must bump the generation");
        let v2 = c.version();
        c.create_index("a", false).unwrap();
        assert!(c.version() > v2, "index creation changes plans");
        let v3 = c.version();
        c.delete_many(&json!({"a": 2})).unwrap();
        assert!(c.version() > v3, "delete must bump the generation");
        let v4 = c.version();
        c.clear().unwrap();
        assert!(c.version() > v4, "clear must bump the generation");
    }

    #[test]
    fn explain_names_the_paths_a_collscan_prunes_by() {
        let c = coll();
        let prof = &c.shared.profiler;
        for i in 0..40 {
            c.insert_one(json!({"n": i, "s": format!("x{i}")})).unwrap();
        }
        let q = json!({"n": {"$gte": 10, "$lt": 15}, "s": {"$ne": "x11"}});
        let scans = prof.counter("plan.collscan");
        let e = c.explain(&q).unwrap();
        assert_eq!(e["plan"], "COLLSCAN");
        assert_eq!(e["column_pruned"], json!(["n"]));
        assert_eq!(e["docs_examined"], 40, "pruning is not examining less");
        assert_eq!(prof.counter("plan.collscan"), scans, "explain runs no scan");
        assert!(c.inner.read().segment.get().is_none(), "nor builds for one");
        for _ in 0..3 {
            assert_eq!(c.find(&q).unwrap().len(), 4);
        }
        assert_eq!(prof.counter("column.build"), 1);
        assert_eq!(prof.counter("column.rows_pruned"), 3 * 35);
        // Nothing numeric to bound, or an index plan: nothing pruned.
        let e = c.explain(&json!({"s": "x3"})).unwrap();
        assert_eq!(e["column_pruned"], json!([]));
        c.create_index("n", false).unwrap();
        let e = c.explain(&q).unwrap();
        assert_eq!(
            (&e["plan"], &e["column_pruned"]),
            (&json!("INDEX_RANGE"), &json!([]))
        );
    }

    /// An unsorted window ends the scan when it is full, with or
    /// without a projection (`find_one` is `limit(1)`): a full window
    /// over 40k matching documents must not cost what matching all of
    /// them does.
    #[test]
    #[cfg_attr(miri, ignore = "40k docs are slow under miri")]
    fn an_unsorted_window_stops_the_scan_when_it_is_full() {
        let c = coll();
        c.insert_many((0..40_000).map(|i| json!({"n": i, "s": "x"})).collect())
            .unwrap();
        let q = json!({"s": "x"});
        let best = |opts: &FindOptions| {
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(c.find_with(&q, opts).unwrap());
                    t.elapsed()
                })
                .min()
                .unwrap()
        };
        let full = best(&FindOptions::all());
        for opts in [
            FindOptions::all().limit(1),
            FindOptions::all().skip(3).limit(2).project(&["n"]),
        ] {
            let windowed = best(&opts);
            assert!(
                windowed * 10 < full,
                "{windowed:?} vs {full:?} for {opts:?}"
            );
        }
        assert_eq!(c.find_one(&q).unwrap().unwrap()["n"], json!(0));
    }

    /// DESIGN §16: the scan that has to rebuild the segment after a
    /// write clones one handle per document, as every COLLSCAN did
    /// before segments, and builds its column with one path lookup per
    /// document where the generic matcher made one; the matcher then
    /// sees only the survivors. So it costs no more than a generic scan:
    /// the counters pin what it did, the clock that it stays under
    /// 1.25x (it measures 0.5–0.6x, best of 15, debug and release).
    #[test]
    #[cfg_attr(miri, ignore = "30k docs are slow under miri")]
    fn first_scan_after_a_write_costs_no_more_than_a_generic_scan() {
        let c = coll();
        c.insert_many(
            (0..30_000)
                .map(|i| json!({"_id": i, "n": i, "k": 0}))
                .collect(),
        )
        .unwrap();
        let prof = &c.shared.profiler;
        let q = json!({"n": {"$gte": 100, "$lt": 700}});
        let cf = Filter::parse(&q).unwrap().compile();
        let (mut generic, mut cold) = (Vec::new(), Vec::new());
        for round in 1..=15 {
            let t = Instant::now();
            let hits: Docs = c.dump().into_iter().filter(|d| cf.matches(d)).collect();
            generic.push(t.elapsed());
            c.update_one(&json!({"_id": 0}), &json!({"$inc": {"k": 1}}))
                .unwrap();
            let t = Instant::now();
            let found = c.find(&q).unwrap();
            cold.push(t.elapsed());
            assert_eq!(found, hits);
            // What the cold scan did: one column, 600 rows matched.
            assert_eq!(prof.counter("column.build"), round);
            assert_eq!(prof.counter("column.rows_pruned"), round * 29_400);
        }
        let (generic, cold) = (generic.iter().min().unwrap(), cold.iter().min().unwrap());
        assert!(
            *cold * 4 <= *generic * 5,
            "cold {cold:?} vs generic {generic:?}"
        );
    }

    #[test]
    fn clear_preserves_index_definitions() {
        let c = coll();
        c.create_index("k", false).unwrap();
        c.insert_one(json!({"k": 1})).unwrap();
        c.clear().unwrap();
        assert_eq!(c.len(), 0);
        assert_eq!(c.index_paths(), vec!["k".to_string()]);
        c.insert_one(json!({"k": 2})).unwrap();
        assert_eq!(c.find(&json!({"k": 2})).unwrap().len(), 1);
    }
}
