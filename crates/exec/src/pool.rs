//! The morsel scatter: one scoped fan-out over a borrowed slice.
//!
//! A [`WorkPool`] is a width, not a set of threads. Each
//! [`WorkPool::scatter_morsels`] cuts its morsels into at most `size`
//! contiguous groups, runs the first on the caller and each further one
//! on a thread of its own inside [`std::thread::scope`], and joins them
//! all before it returns. The scope is what lets the closure and the
//! input borrow from the caller's stack; nothing outlives the call, so
//! there are no resident workers or channels, and no raw-memory code
//! whose soundness needs arguing. A pool of size 1 — or a scatter of
//! one group — never spawns.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Counters describing pool usage, for benches and EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Scoped threads spawned across all morsel scatters (the caller's
    /// own group is not one). The frozen harness prints it as
    /// `exec.jobs_dispatched`.
    pub jobs_dispatched: u64,
    /// Morsel scatters that fanned out to more than one group.
    pub morsel_scatters: u64,
    /// Morsels mapped across all fanned-out scatters, by spawned threads
    /// and scattering callers alike.
    pub morsels_claimed: u64,
}

/// The fan-out width of [`WorkPool::scatter_morsels`], plus its usage
/// counters.
///
/// Holds no threads: a scatter spawns scoped threads and joins them
/// before it returns. The process-wide instance is [`WorkPool::global`].
#[derive(Debug)]
pub struct WorkPool {
    size: usize,
    jobs_dispatched: AtomicU64,
    morsel_scatters: AtomicU64,
    morsels_claimed: AtomicU64,
}

impl WorkPool {
    /// Pool of width `size`: a scatter runs on the caller plus at most
    /// `size - 1` scoped threads. `size` is clamped to at least 1; it may
    /// exceed the host's core count.
    pub fn new(size: usize) -> Self {
        WorkPool {
            size: size.max(1),
            jobs_dispatched: AtomicU64::new(0),
            morsel_scatters: AtomicU64::new(0),
            morsels_claimed: AtomicU64::new(0),
        }
    }

    /// The process-wide pool, as wide as the machine's available
    /// parallelism (1 if that is unknown).
    pub fn global() -> &'static WorkPool {
        static GLOBAL: OnceLock<WorkPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkPool::new(thread::available_parallelism().map_or(1, |n| n.get())))
    }

    /// The fan-out width: the caller plus at most `size - 1` threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Snapshot of the usage counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs_dispatched: self.jobs_dispatched.load(Ordering::Relaxed),
            morsel_scatters: self.morsel_scatters.load(Ordering::Relaxed),
            morsels_claimed: self.morsels_claimed.load(Ordering::Relaxed),
        }
    }

    /// Morsel-driven map over a slice: `items` is cut into contiguous
    /// morsels of `morsel` items (the last may be short; `morsel == 1`
    /// maps item by item, which is how per-shard work is fanned out), and
    /// the result holds `f(morsel)` for each, in input order.
    ///
    /// The morsels are grouped into runs of `ceil(morsels / size)`, at
    /// most `size` groups — the fewest groups that keep the longest one
    /// as short as an even split would. The caller maps the first group
    /// and one scoped thread maps each further group, each in morsel
    /// order; a single group runs inline.
    ///
    /// A panic in `f` is re-raised here with its original payload once
    /// every group has finished: the first panicking group's, in input
    /// order. Results already built by the other groups are dropped.
    pub fn scatter_morsels<T, R, F>(&self, items: &[T], morsel: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        let morsel = morsel.max(1);
        let num = items.len().div_ceil(morsel);
        let per_group = num.div_ceil(self.size) * morsel;
        if per_group >= items.len() {
            return items.chunks(morsel).map(f).collect();
        }
        let (first, rest) = items.split_at(per_group);
        self.morsel_scatters.fetch_add(1, Ordering::Relaxed);
        self.morsels_claimed
            .fetch_add(num as u64, Ordering::Relaxed);
        self.jobs_dispatched
            .fetch_add(rest.len().div_ceil(per_group) as u64, Ordering::Relaxed);

        let map = |group: &[T]| group.chunks(morsel).map(&f).collect::<Vec<R>>();
        let outcomes: Vec<thread::Result<Vec<R>>> = thread::scope(|s| {
            let handles: Vec<_> = rest
                .chunks(per_group)
                .map(|group| s.spawn(|| map(group)))
                .collect();
            let mine = panic::catch_unwind(AssertUnwindSafe(|| map(first)));
            std::iter::once(mine)
                .chain(handles.into_iter().map(|h| h.join()))
                .collect()
        });
        let mut out = Vec::with_capacity(num);
        for outcome in outcomes {
            match outcome {
                Ok(results) => out.extend(results),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        out
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn morsels_borrow_from_the_callers_stack() {
        let pool = WorkPool::new(3);
        let data: Vec<String> = (0..32).map(|i| format!("doc-{i}")).collect();
        let refs: Vec<&String> = data.iter().collect();
        let total = AtomicU64::new(0);
        // One `Result` per morsel, the way the shard router's `rebalance`
        // asks: an `Err` stops nothing, and the first in input order wins.
        let lens = pool.scatter_morsels(&refs, 1, |one| {
            total.fetch_add(one[0].len() as u64, Ordering::Relaxed);
            one[0].strip_prefix("doc-1").map(str::len).ok_or(one[0])
        });
        assert_eq!(lens.len(), 32);
        let expect: u64 = data.iter().map(|s| s.len() as u64).sum();
        assert_eq!(total.load(Ordering::Relaxed), expect);
        let folded: Result<Vec<usize>, &String> = lens.into_iter().collect();
        assert_eq!(folded, Err(&data[0]));
    }

    #[test]
    fn morsels_preserve_order_and_content() {
        let pool = WorkPool::new(4);
        let items: Vec<u64> = (0..10_000).collect();
        let sums = pool.scatter_morsels(&items, 256, |m| m.iter().sum::<u64>());
        let expect: Vec<u64> = items.chunks(256).map(|m| m.iter().sum()).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn scatter_runs_on_at_most_size_threads() {
        let items: Vec<u32> = (0..4096).collect();
        for size in [4, 1] {
            let pool = WorkPool::new(size);
            // 64 morsels, but no more threads than the pool is wide.
            let ids = pool.scatter_morsels(&items, 64, |m| {
                assert_eq!(m.len(), 64);
                std::thread::current().id()
            });
            assert_eq!(ids.len(), 64);
            let seen = ids.iter().collect::<std::collections::HashSet<_>>().len();
            assert!(seen <= size, "size {size}: {seen} threads");
            let st = pool.stats();
            assert_eq!(st.jobs_dispatched, size as u64 - 1);
            assert_eq!(st.morsels_claimed, if size > 1 { 64 } else { 0 });
        }
    }

    #[test]
    fn morsel_panic_propagates_and_pool_survives() {
        let pool = WorkPool::new(3);
        let items: Vec<u32> = (0..64).collect();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scatter_morsels(&items, 4, |m| {
                assert!(!m.contains(&42), "boom at morsel containing 42");
                m.len()
            })
        }))
        .expect_err("panic must propagate to the caller");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom at morsel"), "{msg}");
        // The pool holds no state a panic could poison.
        let out = pool.scatter_morsels(&items, 4, |m| m.len());
        assert_eq!(out.iter().sum::<usize>(), 64);
    }

    #[test]
    fn morsel_panic_drops_initialized_results() {
        // Results that were already written when a later morsel panics
        // must be dropped, not leaked: count live drops via Arc.
        let pool = WorkPool::new(2);
        let token = std::sync::Arc::new(());
        let items: Vec<u32> = (0..32).collect();
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scatter_morsels(&items, 2, |m| {
                assert!(!m.contains(&31), "late boom");
                std::sync::Arc::clone(&token)
            })
        }))
        .expect_err("panic must propagate");
        assert_eq!(std::sync::Arc::strong_count(&token), 1);
    }

    #[test]
    fn size_one_pool_runs_morsels_inline() {
        let pool = WorkPool::new(1);
        let items: Vec<u32> = (0..100).collect();
        let out = pool.scatter_morsels(&items, 7, |m| m.to_vec());
        assert_eq!(out.concat(), items);
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn nested_morsel_scatter_runs_inline_and_completes() {
        let pool = WorkPool::new(2);
        let items: Vec<u64> = (0..16).collect();
        let out = pool.scatter_morsels(&items, 2, |m| {
            let inner: Vec<u64> = m.to_vec();
            pool.scatter_morsels(&inner, 1, |x| x[0] * 2)
                .into_iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = items
            .chunks(2)
            .map(|m| m.iter().map(|x| x * 2).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_and_single_morsel_edges() {
        let pool = WorkPool::new(4);
        let out: Vec<usize> = pool.scatter_morsels(&[] as &[u32], 8, |m| m.len());
        assert!(out.is_empty());
        // One morsel runs inline: fan-out would be pure overhead.
        let out = pool.scatter_morsels(&[1u32, 2, 3], 8, |m| m.len());
        assert_eq!(out, vec![3]);
        assert_eq!(pool.stats().morsel_scatters, 0);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = WorkPool::global();
        let b = WorkPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.size() >= 1);
    }
}
