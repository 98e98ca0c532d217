//! The store's one mutation seam.
//!
//! Every mutation of a [`Database`] — each mutating `Collection` method
//! and `Database::drop_collection` — runs through [`Shared::commit`],
//! and [`raw_apply`] (the only function that changes stored documents,
//! index definitions or the collection set) is called from nowhere
//! else. Durability is therefore a property the database *has*, for
//! whoever holds a handle: with no journal attached a commit is the
//! in-memory apply; with one attached it is the write-ahead protocol
//!
//! ```text
//! take Journal(380) → decide → append → apply (same guard) → flush
//!       → release → group-commit barrier → maybe checkpoint → Ok
//! ```
//!
//! The protocol is carried by types, so breaking it does not compile:
//!
//! * store state sits in a `StateLock`, whose `write()` is private to
//!   this module — a `Collection` or `Database` method can only read
//!   its state, and every change goes through `raw_apply`;
//! * `apply` takes the decision by value and `record` borrows it, so the
//!   apply cannot move above the append (use of a moved value);
//! * a journaled commit returns `Ok` only with an [`Acked`] in hand, and
//!   only the barrier (`Barrier::pass`) makes one.
//!
//! The frames themselves are gated in [`crate::persist`]: a journal
//! writes only a [`crate::persist::Framed`] buffer, and a reader applies
//! only what [`crate::persist::decode_frame`] verified.
//!
//! * **Decide once, materialize first.** Whatever the apply would
//!   choose — an assigned `_id`, the upsert insert-vs-update branch, the
//!   sorted find-and-modify target — is chosen by `decide` *before* the
//!   append, so the journal records exactly what the store will do and
//!   replay re-decides nothing. On a volatile database `decide` and
//!   `apply` share one write-lock hold (two claimers never pick the same
//!   document); on a journaled one the journal guard excludes every
//!   other writer between them.
//! * **Append and apply under one guard**, so journal order is apply
//!   order; a batch (`insert_many`) is one guard hold and one barrier.
//! * **Journal from a borrow, write once.** `record` hands the sink a
//!   [`JournalRef`] borrowed from what was decided — the document is
//!   encoded straight into the commit's frame buffer, never cloned —
//!   and the commit's frames reach the OS in one write, before the
//!   guard is released (the LSN the barrier waits on comes from that
//!   write, so the barrier cannot precede it).
//! * **Barrier outside the guard.** Committers pile up on the
//!   [`crate::persist::GroupCommit`] sync lock and one leader fsync
//!   covers the queue; readers never wait on an fsync.
//! * **Checkpoint outside the commit path.** A commit that leaves the
//!   log over its threshold captures document handles and seals the WAL
//!   generation under the guard (no serialization), and a thread of its
//!   own writes the snapshot while commits continue
//!   ([`crate::persist`]).
//! * **An op that fails to apply stays in the log** and replays as the
//!   same deterministic failure ([`JournalOp::apply`]); replay itself
//!   never journals — recovery and secondary apply run on a database
//!   with no journal attached.
//! * **Every decision has a journaled form.** A bulk build into an
//!   empty collection is one decision and one apply, and its `record`
//!   logs one `Insert` per document: the frames one-by-one insertion
//!   writes, so replay needs no record of its own for it.

use crate::collection::Collection;
use crate::database::{Database, DbInner, Registry};
use crate::error::Result;
use crate::persist::{Acked, Barrier, JournalRef};
use crate::profiler::Profiler;
use mp_sync::{LockRank, OrderedMutex, OrderedReadGuard, OrderedRwLock, OrderedWriteGuard};
use std::sync::{Arc, OnceLock, Weak};

/// Where a journaled database records each op before applying it. Two
/// implementors: the file WAL ([`crate::persist::Persister`]) and a
/// replica set's in-memory oplog. Both encode the borrowed op into a
/// CRC frame and keep the bytes, not the op: the WAL until they reach
/// the OS, the oplog for its secondaries to decode.
pub(crate) trait JournalSink: Send {
    /// Record `op`, borrowed from the commit that decided it.
    fn append_op(&mut self, op: JournalRef<'_>) -> Result<()>;

    /// Hand everything appended so far to the log's medium (the OS, for
    /// the file WAL). Returns the LSN a durability barrier must reach
    /// before those ops are acknowledged, and whether the log has
    /// outgrown its checkpoint threshold.
    fn flush_appended(&mut self) -> Result<(u64, bool)>;

    /// Start folding the log into a snapshot of `db` if it is (still)
    /// over its threshold. Runs after the barrier of a commit whose
    /// flush reported the log due, with the sink locked so the state
    /// captured is the state as of one point in the log. By default
    /// nothing is ever folded away.
    fn maybe_checkpoint(&mut self, _db: &Database) -> Result<()> {
        Ok(())
    }
}

/// The journal a database commits through once one is attached.
pub(crate) struct Journal {
    /// `LockRank::Journal` (380) sits *outside* `Database` (400) so a
    /// commit may apply while holding it and a checkpoint may read the
    /// collections while excluding appenders.
    pub(crate) sink: Arc<OrderedMutex<dyn JournalSink>>,
    /// What a commit waits for before it is acknowledged.
    pub(crate) barrier: Barrier,
    /// The owning database, for checkpoints. Weak: collections share
    /// this state and the database owns the collections.
    pub(crate) db: Weak<DbInner>,
}

impl Journal {
    /// Acknowledge a commit whose flush reached `lsn` (`None`: it
    /// appended nothing): pass the durability barrier, then start a
    /// checkpoint if that flush left the log due. The sink lock is not
    /// held across the barrier, and is re-taken only to capture a
    /// checkpoint.
    fn acknowledge(&self, flushed: Option<(u64, bool)>) -> Result<Acked> {
        let acked = self.barrier.pass(flushed.map(|(lsn, _)| lsn))?;
        if let Some((_, true)) = flushed {
            // Only collection handles left: nothing can snapshot, and
            // the log stays complete without it.
            if let Some(inner) = self.db.upgrade() {
                self.sink.lock().maybe_checkpoint(&Database { inner })?;
            }
        }
        Ok(acked)
    }

    /// The write-ahead protocol of [`Shared::commit`], under one hold
    /// of the sink: per item decide, record, apply; then one flush, and
    /// the barrier outside the guard. Its `Ok` carries the barrier's
    /// [`Acked`].
    // mp-lint: allow(E003) — write-ahead core: each op is staged in the log's frame buffer before its in-memory apply and the buffer is written out before the guard is released, all under one journal guard hold so journal order is apply order; the barrier waits outside
    fn write_ahead<'r, S: Store, I, D, T>(
        &self,
        store: &'r S,
        items: impl IntoIterator<Item = I>,
        decide: impl Fn(&S::State, I) -> Result<Option<D>>,
        record: impl for<'a> Fn(&'a &'r S, &'a D, Append<'_, 'a>) -> Result<()>,
        mut apply: impl FnMut(&mut S::State, D) -> Result<T>,
    ) -> Result<(Acked, Option<T>)> {
        let mut sink = self.sink.lock();
        let mut appended = false;
        let last = each(items, |item| {
            let Some(d) = decide(&store.state().read(), item)? else {
                return Ok(None);
            };
            record(&store, &d, &mut |op| {
                sink.append_op(op)?;
                appended = true;
                Ok(())
            })?;
            raw_apply(store, |state| apply(state, d)).map(Some)
        });
        let flushed = appended.then(|| sink.flush_appended());
        drop(sink);
        let acked = self.acknowledge(flushed.transpose()?)?;
        Ok((acked, last?))
    }
}

/// Run `step` over `items` until the first error; the last output.
fn each<I, T>(
    items: impl IntoIterator<Item = I>,
    mut step: impl FnMut(I) -> Result<Option<T>>,
) -> Result<Option<T>> {
    let mut last = None;
    for item in items {
        last = step(item)?.or(last);
    }
    Ok(last)
}

/// Where a commit's `record` hands each record of a decision: the
/// journal, which frames it into the commit's buffer.
pub(crate) type Append<'f, 'a> = &'f mut dyn FnMut(JournalRef<'a>) -> Result<()>;

/// State a database shares with each of its collections.
pub(crate) struct Shared {
    pub(crate) profiler: Profiler,
    /// Simulated clock (seconds) read by `$currentDate`.
    pub(crate) clock: OrderedRwLock<f64>,
    /// Attached once, after recovery replay; lives as long as the last
    /// database clone or collection handle.
    pub(crate) journal: OnceLock<Journal>,
}

/// A store's state behind its lock. Anyone may `read()` it; `write()`
/// is private to this module, so state changes only in [`raw_apply`]
/// and in [`register_collection`].
pub(crate) struct StateLock<T>(OrderedRwLock<T>);

impl<T> StateLock<T> {
    pub(crate) fn new(rank: LockRank, state: T) -> Self {
        StateLock(OrderedRwLock::new(rank, state))
    }

    pub(crate) fn read(&self) -> OrderedReadGuard<'_, T> {
        self.0.read()
    }

    fn write(&self) -> OrderedWriteGuard<'_, T> {
        self.0.write()
    }
}

/// Something [`Shared::commit`] mutates: a collection's documents or a
/// database's collection registry.
pub(crate) trait Store {
    type State;
    /// What a generation bump retires (a collection's scan segment).
    type Retired;
    fn state(&self) -> &StateLock<Self::State>;
    /// Publish a new generation if the apply just run changed anything
    /// a cached read could see; called under the state write lock.
    /// Whatever the old generation owned comes back to be dropped once
    /// the lock is released.
    fn bump_version(&self, state: &mut Self::State) -> Self::Retired;
}

/// The raw apply: the only function through which stored documents,
/// index definitions or the collection set change. One generation bump
/// per apply that changed anything, under the same write lock.
fn raw_apply<S: Store, T>(store: &S, f: impl FnOnce(&mut S::State) -> T) -> T {
    let lock = store.state();
    let mut state = lock.write();
    let out = f(&mut state);
    let retired = store.bump_version(&mut state);
    drop(state);
    drop(retired);
    out
}

/// `Database::collection`'s insert-on-create: `create` runs under the
/// registry's write lock. Not journaled, as it never was: an empty
/// collection holds nothing to recover, and replay re-creates it with
/// the first journaled op that names it.
pub(crate) fn register_collection(
    db: &Database,
    create: impl FnOnce(&mut Registry) -> Arc<Collection>,
) -> Arc<Collection> {
    create(&mut db.state().write())
}

impl Shared {
    pub(crate) fn new() -> Self {
        Shared {
            profiler: Profiler::new(65_536),
            clock: OrderedRwLock::new(LockRank::Clock, 0.0),
            journal: OnceLock::new(),
        }
    }

    /// The one mutation choke point (see the module docs). For each of
    /// `items`: `decide` what will happen from the current state (or
    /// decline with `None`), journal the decided form — `record` hands
    /// each of its records to `append`, borrowed from the store and the
    /// decision, which is why it is handed both; a bulk build has one
    /// per document — then `apply` it. Stops at the first error; returns
    /// the last output.
    pub(crate) fn commit<'r, S: Store, I, D, T>(
        &self,
        store: &'r S,
        items: impl IntoIterator<Item = I>,
        decide: impl Fn(&S::State, I) -> Result<Option<D>>,
        record: impl for<'a> Fn(&'a &'r S, &'a D, Append<'_, 'a>) -> Result<()>,
        mut apply: impl FnMut(&mut S::State, D) -> Result<T>,
    ) -> Result<Option<T>> {
        match self.journal.get() {
            Some(journal) => journal
                .write_ahead(store, items, decide, record, apply)
                .map(|(_acked, last)| last),
            None => each(items, |item| {
                raw_apply(store, |state| match decide(state, item)? {
                    Some(d) => apply(state, d).map(Some),
                    None => Ok(None),
                })
            }),
        }
    }

    /// Commit one mutation whose journaled form is known up front.
    pub(crate) fn commit_one<S: Store, T: Default>(
        &self,
        store: &S,
        op: JournalRef<'_>,
        mut apply: impl FnMut(&mut S::State) -> Result<T>,
    ) -> Result<T> {
        let out = self.commit(
            store,
            Some(op),
            |_, op| Ok(Some(op)),
            |_, op, append| append(*op),
            |state, _| apply(state),
        )?;
        Ok(out.unwrap_or_default())
    }
}
