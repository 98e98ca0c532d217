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
//! `mp-lint effects` (E002) proves `raw_apply` is reachable only from a
//! journaling caller; `mp-lint order` proves, on `commit` itself, that
//! the append precedes the apply (O001) and a barrier follows the last
//! append and the flush before the caller sees `Ok` (O002).
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
//!   [`GroupCommit`] sync lock and one leader fsync covers the queue;
//!   readers never wait on an fsync.
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

use crate::database::{Database, DbInner};
use crate::error::Result;
use crate::persist::{GroupCommit, JournalRef};
use crate::profiler::Profiler;
use mp_sync::{LockRank, OrderedMutex, OrderedRwLock};
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
    /// Barrier to wait on before acknowledging; `None` acknowledges on
    /// append (`DurableOptions::fsync == false`, and the oplog).
    pub(crate) sync: Option<Arc<GroupCommit>>,
    /// The owning database, for checkpoints. Weak: collections share
    /// this state and the database owns the collections.
    pub(crate) db: Weak<DbInner>,
}

impl Journal {
    /// Acknowledge a commit whose flush reached `lsn`: wait for the
    /// durability barrier, then start a checkpoint if that flush left
    /// the log due. The sink lock is not held across the barrier, and
    /// is re-taken only to capture a checkpoint.
    fn acknowledge(&self, (lsn, checkpoint_due): (u64, bool)) -> Result<()> {
        if let Some(sync) = &self.sync {
            sync.sync_to(lsn)?;
        }
        match self.db.upgrade() {
            Some(inner) if checkpoint_due => self.sink.lock().maybe_checkpoint(&Database { inner }),
            // Not due — or only collection handles are left: nothing
            // can snapshot, and the log stays complete without it.
            _ => Ok(()),
        }
    }
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

/// Something [`Shared::commit`] mutates: a collection's documents or a
/// database's collection registry.
pub(crate) trait Store {
    type State;
    /// What a generation bump retires (a collection's scan segment).
    type Retired;
    fn state(&self) -> &OrderedRwLock<Self::State>;
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
    // mp-lint: allow(E003) — write-ahead core: each op is staged in the log's frame buffer before its in-memory apply and the buffer is written out before the guard is released, all under one journal guard hold so journal order is apply order; the barrier waits outside
    pub(crate) fn commit<'r, S: Store, I, D, T>(
        &self,
        store: &'r S,
        items: impl IntoIterator<Item = I>,
        decide: impl Fn(&S::State, I) -> Result<Option<D>>,
        record: impl for<'a> Fn(&'a &'r S, &'a D, Append<'_, 'a>) -> Result<()>,
        mut apply: impl FnMut(&mut S::State, D) -> Result<T>,
    ) -> Result<Option<T>> {
        let journal = self.journal.get();
        let mut sink = journal.map(|j| j.sink.lock());
        let mut appended = false;
        let mut last = Ok(None);
        for item in items {
            let step = match sink.as_mut() {
                Some(sink) => {
                    let decided = decide(&store.state().read(), item);
                    decided.and_then(|d| match d {
                        Some(d) => {
                            record(&store, &d, &mut |op| {
                                sink.append_op(op)?;
                                appended = true;
                                Ok(())
                            })?;
                            raw_apply(store, |state| apply(state, d)).map(Some)
                        }
                        None => Ok(None),
                    })
                }
                None => raw_apply(store, |state| match decide(state, item)? {
                    Some(d) => apply(state, d).map(Some),
                    None => Ok(None),
                }),
            };
            match step {
                Ok(None) => {}
                Ok(out) => last = Ok(out),
                Err(e) => {
                    last = Err(e);
                    break;
                }
            }
        }
        let flushed = match sink.as_mut() {
            Some(sink) if appended => Some(sink.flush_appended()),
            _ => None,
        };
        drop(sink);
        if let (Some(journal), Some(flushed)) = (journal, flushed) {
            journal.acknowledge(flushed?)?;
        }
        last
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
