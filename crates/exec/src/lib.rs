//! # mp-exec — pooled scatter-gather and the read-through query cache
//!
//! The paper's datastore serves FireWorks claiming, MapReduce analytics,
//! and the Materials API concurrently; this crate provides the two
//! execution primitives the rest of the workspace fans work out on:
//!
//! * [`WorkPool`] — a fixed-size pool of persistent worker threads with
//!   one scoped fan-out, [`WorkPool::scatter_morsels`]: the caller and
//!   the workers claim contiguous morsels off a shared slice via an
//!   atomic cursor and write into pre-allocated output slots —
//!   O(workers) boxes and channel sends per scatter, order preserved by
//!   construction. The MapReduce map phase and the shard router's
//!   per-shard updates and migrations fan out on it; the read path's
//!   match scan does not (DESIGN §14). The caller participates as
//!   worker zero, so a pool of size 1 degrades to a plain sequential
//!   map with no thread traffic at all.
//! * [`QueryCache`] — a bounded read-through cache keyed by a normalized
//!   query string and guarded by per-collection *generation counters*:
//!   every write bumps the collection's generation, and a cached entry
//!   whose recorded generation no longer matches is dropped on probe.
//!
//! Both structures keep their shared state behind `mp-sync` ranked locks
//! (`ExecPool` and `QueryCache` in the DESIGN §8 table) so the L0xx
//! concurrency lints and the loom suite cover them like everything else.
//! Worker threads are plain `std` threads; under `--cfg loom` the
//! vendored shim schedules real threads too, so the same code runs in
//! model-checked tests.

#![deny(rust_2018_idioms)]

pub mod cache;
pub mod pool;

pub use cache::{CacheStats, QueryCache};
pub use pool::{PoolStats, WorkPool};
