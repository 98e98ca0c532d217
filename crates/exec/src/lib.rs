//! # mp-exec — scoped scatter-gather and the read-through query cache
//!
//! The paper's datastore serves FireWorks claiming, MapReduce analytics,
//! and the Materials API concurrently; this crate provides the two
//! execution primitives the rest of the workspace fans work out on:
//!
//! * [`WorkPool`] — one scoped fan-out, [`WorkPool::scatter_morsels`]:
//!   the caller and at most `size - 1` `std::thread::scope` threads
//!   claim the morsels of a borrowed slice in order from one cursor,
//!   until they run out or an optional stop holds, and the results come
//!   back in input order. The pool is only a width and three counters;
//!   it holds no threads. The MapReduce map phase, the shard router's
//!   per-shard updates and migrations, and the morsels of a collection
//!   scan after its first fan out on it (DESIGN §14).
//! * [`QueryCache`] — a bounded read-through cache keyed by a normalized
//!   query string and guarded by per-collection *generation counters*:
//!   every write bumps the collection's generation, and a cached entry
//!   whose recorded generation no longer matches is dropped on probe.
//!
//! The cache keeps its shared state behind an `mp-sync` ranked lock
//! (`QueryCache` in the DESIGN §8 table), so the L0xx concurrency lints
//! cover it like everything else.

#![deny(rust_2018_idioms)]

pub mod cache;
pub mod pool;

pub use cache::{CacheStats, QueryCache};
pub use pool::{PoolStats, Stop, WorkPool};
