//! # mp-sync — the instrumented lock facade
//!
//! Every lock in the workspace is an [`OrderedMutex`] or an
//! [`OrderedRwLock`] carrying a [`LockRank`] from the static rank table
//! below. Acquisition must follow strictly **ascending** rank within a
//! thread; in debug/test builds each thread tracks its held-lock set and
//! any inversion (or double acquisition of one rank) panics with the full
//! acquisition chain. In release builds the tracking compiles away and
//! the facade is a zero-cost passthrough to `parking_lot` (verified by
//! the `exp_sharding` / `workflow_throughput` numbers in EXPERIMENTS.md).
//! Under `--cfg loom` the primitives come from `loom::sync`, so the same
//! call sites feed the model-checking tests.
//!
//! ## The rank table
//!
//! ```text
//! outermost (acquired first)                         innermost (acquired last)
//! LaunchPad → RateLimit → AuthAccounts → AuthKeyCounter → WebLog
//!   → QueryCache → LintSchemas → ReplApplied → ReplRouter → ShardStats
//!   → Journal → JournalSync → Database → Collection → Index → Clock
//!   → Profiler
//! ```
//!
//! The docstore chain mirrors the containment hierarchy (a `Database`
//! operation may take a `Collection` lock while holding the collection
//! map, a `Collection` operation may consult the `Clock` or `Profiler`);
//! the FireWorks claim lock is outermost because a claim transaction
//! spans several collection operations. `Index` is reserved: secondary
//! indexes currently live under the `Collection` lock, and the rank keeps
//! the slot stable for the day they are split out.
//!
//! ## Poisoning policy
//!
//! There is none — deliberately. The workspace standardizes on
//! `parking_lot`-style non-poisoning locks: a panic while holding a guard
//! releases the lock and later acquirers see the (possibly half-updated)
//! state. Store mutations are written to be exception-safe *before* any
//! state is published (see `Collection::insert_one`), so un-poisoned
//! continuation is sound, and a guard comes with no `LockResult` to
//! unwrap.
//!
//! ## The facade is the only way to a lock
//!
//! The workspace's `clippy.toml` refuses `std::sync::{Mutex, RwLock}`
//! and `parking_lot::{Mutex, RwLock}` everywhere else; this crate, which
//! builds the ranked locks on them, allows it.

#![deny(rust_2018_idioms)]
#![allow(clippy::disallowed_types)]

use std::fmt;

/// The static lock-rank table. Variants are ordered outermost-first;
/// discriminants leave gaps so future ranks slot in without renumbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum LockRank {
    /// FireWorks claim/dedup transaction (outermost: spans store ops).
    LaunchPad = 100,
    /// MAPI token buckets.
    RateLimit = 200,
    /// MAPI account registry.
    AuthAccounts = 210,
    /// MAPI API-key counter (taken under `AuthAccounts` in `register`).
    AuthKeyCounter = 220,
    /// MAPI web-query log.
    WebLog = 230,
    /// MAPI read-through query cache (probed before any store lock).
    QueryCache = 240,
    /// MAPI inferred collection schemas, one per write generation
    /// (looked up and stored with no other lock held).
    LintSchemas = 250,
    /// Replica-set per-secondary applied counters (held across a
    /// replication round: → `Journal`, the oplog, → collection ops).
    ReplApplied = 310,
    /// Replica-set read round-robin cursor.
    ReplRouter = 330,
    /// Shard-router statistics.
    ShardStats = 350,
    /// A database's journal — the file WAL or a replica set's oplog
    /// (outside `Database` so a commit may apply, and a checkpoint may
    /// read collections, while serializing appenders).
    Journal = 380,
    /// WAL group-commit sync state (taken after `Journal` by committers
    /// waiting on a durability barrier, or with nothing held).
    JournalSync = 385,
    /// Database collection map.
    Database = 400,
    /// Collection contents (docs + indexes).
    Collection = 500,
    /// Reserved for split-out secondary indexes.
    Index = 600,
    /// Simulated clock.
    Clock = 700,
    /// Operation profiler (innermost: recorded from RAII timers).
    Profiler = 800,
}

impl LockRank {
    /// Numeric rank; acquisition must be strictly ascending per thread.
    pub const fn rank(self) -> u16 {
        self as u16
    }

    /// Stable display name.
    pub const fn name(self) -> &'static str {
        match self {
            LockRank::LaunchPad => "LaunchPad",
            LockRank::RateLimit => "RateLimit",
            LockRank::AuthAccounts => "AuthAccounts",
            LockRank::AuthKeyCounter => "AuthKeyCounter",
            LockRank::WebLog => "WebLog",
            LockRank::QueryCache => "QueryCache",
            LockRank::LintSchemas => "LintSchemas",
            LockRank::ReplApplied => "ReplApplied",
            LockRank::ReplRouter => "ReplRouter",
            LockRank::ShardStats => "ShardStats",
            LockRank::Journal => "Journal",
            LockRank::JournalSync => "JournalSync",
            LockRank::Database => "Database",
            LockRank::Collection => "Collection",
            LockRank::Index => "Index",
            LockRank::Clock => "Clock",
            LockRank::Profiler => "Profiler",
        }
    }
}

/// `Display` shows `Name(rank)`, the form the violation panic uses.
impl fmt::Display for LockRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name(), self.rank())
    }
}

// ---------------------------------------------------------------------
// Per-thread held-lock tracking (debug/test builds only).
// ---------------------------------------------------------------------

#[cfg(debug_assertions)]
mod tracking {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        /// Locks this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// Validate and record an acquisition. Panics on rank inversion or
    /// same-rank double acquisition, printing the full chain.
    pub fn acquire(rank: LockRank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&worst) = held.iter().find(|h| h.rank() >= rank.rank()) {
                let chain = held
                    .iter()
                    .map(|h| h.to_string())
                    .collect::<Vec<_>>()
                    .join(" -> ");
                drop(held); // don't poison the tracker during unwind
                if worst.rank() == rank.rank() {
                    panic!(
                        "lock-order violation: double acquisition of rank {rank} \
                         (already held; full chain: {chain} -> {rank})"
                    );
                }
                panic!(
                    "lock-order violation: acquiring {rank} while holding {worst} \
                     (acquisition cycle: {chain} -> {rank}; ranks must be strictly \
                     ascending — see the table in mp-sync)"
                );
            }
            held.push(rank);
        });
    }

    /// Record a release (guards may be dropped in any order).
    pub fn release(rank: LockRank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| *h == rank) {
                held.remove(pos);
            }
        });
    }

    /// Ranks currently held by this thread (for assertions in tests).
    pub fn held() -> Vec<LockRank> {
        HELD.with(|held| held.borrow().clone())
    }
}

/// Ranks the current thread holds right now. Always empty in release
/// builds (tracking is compiled out).
pub fn held_ranks() -> Vec<LockRank> {
    #[cfg(debug_assertions)]
    {
        tracking::held()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

#[cfg(debug_assertions)]
fn track_acquire(rank: LockRank) {
    tracking::acquire(rank);
}
#[cfg(not(debug_assertions))]
#[inline(always)]
fn track_acquire(_rank: LockRank) {}

#[cfg(debug_assertions)]
fn track_release(rank: LockRank) {
    tracking::release(rank);
}
#[cfg(not(debug_assertions))]
#[inline(always)]
fn track_release(_rank: LockRank) {}

// ---------------------------------------------------------------------
// Backing primitives: parking_lot normally, loom under --cfg loom.
// ---------------------------------------------------------------------

#[cfg(not(loom))]
mod imp {
    pub use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

    pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock()
    }
    pub fn try_lock<T: ?Sized>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
        m.try_lock()
    }
    pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
        l.read()
    }
    pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
        l.write()
    }
}

#[cfg(loom)]
mod imp {
    pub use loom::sync::{Mutex, RwLock};
    use std::sync::PoisonError;
    pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

    pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }
    pub fn try_lock<T: ?Sized>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
        m.try_lock().ok()
    }
    pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
        l.read().unwrap_or_else(PoisonError::into_inner)
    }
    pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
        l.write().unwrap_or_else(PoisonError::into_inner)
    }
}

// ---------------------------------------------------------------------
// OrderedMutex
// ---------------------------------------------------------------------

/// Mutual-exclusion lock with a declared [`LockRank`].
pub struct OrderedMutex<T: ?Sized> {
    rank: LockRank,
    inner: imp::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wrap `value` at `rank`.
    pub fn new(rank: LockRank, value: T) -> Self {
        OrderedMutex {
            rank,
            inner: imp::Mutex::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    #[cfg(not(loom))]
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// This lock's rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquire, enforcing ascending rank order in debug builds.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        track_acquire(self.rank);
        OrderedMutexGuard {
            guard: imp::lock(&self.inner),
            rank: self.rank,
        }
    }

    /// Non-blocking acquire; rank order is still enforced on success.
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        let guard = imp::try_lock(&self.inner)?;
        track_acquire(self.rank);
        Some(OrderedMutexGuard {
            guard,
            rank: self.rank,
        })
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// RAII guard for [`OrderedMutex`].
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    guard: imp::MutexGuard<'a, T>,
    rank: LockRank,
}

impl<T: ?Sized> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        track_release(self.rank);
    }
}

// ---------------------------------------------------------------------
// OrderedRwLock
// ---------------------------------------------------------------------

/// Reader-writer lock with a declared [`LockRank`]. Shared and exclusive
/// holds count the same for ordering: re-acquiring a rank this thread
/// already holds (even read-after-read) is a violation.
pub struct OrderedRwLock<T: ?Sized> {
    rank: LockRank,
    inner: imp::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wrap `value` at `rank`.
    pub fn new(rank: LockRank, value: T) -> Self {
        OrderedRwLock {
            rank,
            inner: imp::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    #[cfg(not(loom))]
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// This lock's rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Shared acquire, enforcing ascending rank order in debug builds.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        track_acquire(self.rank);
        OrderedReadGuard {
            guard: imp::read(&self.inner),
            rank: self.rank,
        }
    }

    /// Exclusive acquire, enforcing ascending rank order in debug builds.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        track_acquire(self.rank);
        OrderedWriteGuard {
            guard: imp::write(&self.inner),
            rank: self.rank,
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// RAII shared guard for [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T: ?Sized> {
    guard: imp::RwLockReadGuard<'a, T>,
    rank: LockRank,
}

impl<T: ?Sized> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        track_release(self.rank);
    }
}

/// RAII exclusive guard for [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T: ?Sized> {
    guard: imp::RwLockWriteGuard<'a, T>,
    rank: LockRank,
}

impl<T: ?Sized> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        track_release(self.rank);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_is_fine() {
        let db = OrderedRwLock::new(LockRank::Database, 0u32);
        let coll = OrderedRwLock::new(LockRank::Collection, 0u32);
        let prof = OrderedMutex::new(LockRank::Profiler, 0u32);
        let _d = db.read();
        let _c = coll.write();
        let _p = prof.lock();
        assert_eq!(
            held_ranks(),
            vec![LockRank::Database, LockRank::Collection, LockRank::Profiler]
        );
    }

    #[test]
    fn release_unwinds_in_any_order() {
        let db = OrderedRwLock::new(LockRank::Database, 0u32);
        let coll = OrderedRwLock::new(LockRank::Collection, 0u32);
        let d = db.read();
        let c = coll.read();
        drop(d); // out-of-order release is fine
        drop(c);
        assert!(held_ranks().is_empty());
        // And the ranks are reusable afterwards.
        let prof = OrderedMutex::new(LockRank::Profiler, ());
        let _c = coll.write();
        let _p = prof.lock();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "tracking is debug-only")]
    fn inversion_panics_with_cycle() {
        let err = std::panic::catch_unwind(|| {
            let coll = OrderedRwLock::new(LockRank::Collection, 0u32);
            let db = OrderedRwLock::new(LockRank::Database, 0u32);
            let _c = coll.write();
            let _d = db.read(); // Database after Collection: inversion
        })
        .expect_err("inversion must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(
            msg.contains("Collection(500) -> Database(400)"),
            "cycle missing from: {msg}"
        );
        assert!(held_ranks().is_empty(), "unwind must clear the tracker");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "tracking is debug-only")]
    fn same_rank_double_lock_panics() {
        let err = std::panic::catch_unwind(|| {
            let a = OrderedMutex::new(LockRank::ShardStats, 0u32);
            let b = OrderedMutex::new(LockRank::ShardStats, 0u32);
            let _a = a.lock();
            let _b = b.lock(); // same rank: refused even on a different lock
        })
        .expect_err("double acquisition must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("double acquisition"), "{msg}");
    }

    #[test]
    fn tracking_is_per_thread() {
        let db = std::sync::Arc::new(OrderedRwLock::new(LockRank::Database, 0u32));
        let coll = std::sync::Arc::new(OrderedRwLock::new(LockRank::Collection, 0u32));
        let _c = coll.write();
        // Another thread's acquisitions are independent of ours.
        let (db2, coll2) = (db.clone(), coll.clone());
        std::thread::spawn(move || {
            let d = db2.read();
            assert_eq!(held_ranks(), vec![LockRank::Database]);
            drop(d);
            drop(coll2);
        })
        .join()
        .unwrap();
        assert_eq!(held_ranks(), vec![LockRank::Collection]);
    }

    #[test]
    fn try_lock_does_not_track_on_failure() {
        let m = OrderedMutex::new(LockRank::WebLog, 1u32);
        let g = m.lock();
        // Same-thread try_lock on a std-backed mutex would deadlock if it
        // blocked; it must fail cleanly and leave the tracker untouched.
        let t = std::thread::scope(|s| s.spawn(|| m.try_lock().is_none()).join().unwrap());
        assert!(t);
        drop(g);
        assert_eq!(*m.lock(), 1);
    }
}
