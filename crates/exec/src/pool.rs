//! The morsel scatter: one scoped fan-out over a borrowed slice.
//!
//! A [`WorkPool`] is a width, not a set of threads. Each
//! [`WorkPool::scatter_morsels`] cuts its items into morsels; the caller
//! and at most `size - 1` threads spawned inside [`std::thread::scope`]
//! claim them in input order from one atomic cursor, each result tagged
//! with its morsel, until the morsels run out or the caller's
//! stop says the work is done, and the scatter joins them all before it
//! returns. The scope is what lets the closure and the input borrow
//! from the caller's stack; nothing outlives the call, so there are no
//! resident workers or channels, and no raw-memory code whose soundness
//! needs arguing. A pool of size 1, a scatter of one morsel, and a
//! scatter started inside another scatter's morsel never spawn: fan-outs
//! do not nest.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Counters describing pool usage, for benches and EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Scoped threads spawned across all morsel scatters (the caller's
    /// own share is not one). The frozen harness prints it as
    /// `exec.jobs_dispatched`.
    pub jobs_dispatched: u64,
    /// Morsel scatters that fanned out to more than one thread.
    pub morsel_scatters: u64,
    /// Morsels mapped across all fanned-out scatters, by spawned threads
    /// and scattering callers alike.
    pub morsels_claimed: u64,
}

/// The early stop of a scatter: asked before every claim, and once it
/// answers `true` it must keep doing so.
pub type Stop<'a> = dyn Fn() -> bool + Sync + 'a;

thread_local! {
    /// Whether this thread is mapping a scatter's morsels: a scatter
    /// started here runs inline.
    static IN_SCATTER: Cell<bool> = const { Cell::new(false) };
    /// The pool [`WorkPool::current`] answers on this thread, when
    /// [`WorkPool::install`] set one.
    static INSTALLED: Cell<Option<&'static WorkPool>> = const { Cell::new(None) };
}

/// Sets a thread-local cell for the life of the guard and puts the old
/// value back when it drops, unwinding included.
struct Restore<T: Copy + 'static> {
    cell: &'static std::thread::LocalKey<Cell<T>>,
    was: T,
}

impl<T: Copy + 'static> Restore<T> {
    fn set(cell: &'static std::thread::LocalKey<Cell<T>>, value: T) -> Self {
        Restore {
            cell,
            was: cell.replace(value),
        }
    }
}

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        self.cell.set(self.was);
    }
}

/// What one thread of a scatter mapped: `(morsel, result)` in claim
/// order, and the first morsel whose `f` panicked, with the payload.
type Share<R> = (Vec<(usize, R)>, Option<(usize, Box<dyn Any + Send>)>);

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

    /// The pool the store's fan-outs use on this thread: the one
    /// [`install`](Self::install) set, else [`global`](Self::global).
    pub fn current() -> &'static WorkPool {
        INSTALLED.get().unwrap_or_else(WorkPool::global)
    }

    /// Run `f` with this pool as [`current`](Self::current) on the
    /// calling thread, then put the previous one back — how a test runs
    /// the same reads at several widths.
    pub fn install<R>(&'static self, f: impl FnOnce() -> R) -> R {
        let _installed = Restore::set(&INSTALLED, Some(self));
        f()
    }

    /// The fan-out width: the caller plus at most `size - 1` threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The width a scatter started on the calling thread gets: 1 while
    /// the thread maps another scatter's morsel, [`size`](Self::size)
    /// otherwise.
    pub fn width_here(&self) -> usize {
        if IN_SCATTER.get() {
            1
        } else {
            self.size
        }
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
    /// maps item by item, which is how per-shard work is fanned out),
    /// and the result holds `f(morsel)` for a prefix of the morsels, in
    /// input order: all of them unless `stop` says otherwise.
    ///
    /// The caller and at most [`width_here`](Self::width_here)` - 1`
    /// scoped threads (no more than there are morsels) claim the morsels
    /// in input order from one cursor. Before every claim each asks
    /// `stop`; once it answers `true` nobody claims again and each
    /// thread finishes the morsel in hand, so every morsel claimed
    /// before the stop is mapped and the claimed morsels are a prefix.
    /// A single thread maps inline, in order, asking `stop` the same way.
    ///
    /// A panic in `f` stops the claiming too. It is re-raised here with
    /// its original payload once every thread has stopped: the panic of
    /// the first panicking morsel, in input order. Results already built
    /// by the other morsels are dropped.
    pub fn scatter_morsels<T, R, F>(
        &self,
        items: &[T],
        morsel: usize,
        stop: Option<&Stop<'_>>,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        let morsel = morsel.max(1);
        let num = items.len().div_ceil(morsel);
        let stopped = || stop.is_some_and(|s| s());
        let threads = self.width_here().min(num).saturating_sub(1);
        if threads == 0 {
            let _inside = Restore::set(&IN_SCATTER, true);
            return (items.chunks(morsel))
                .take_while(|_| !stopped())
                .map(f)
                .collect();
        }
        self.morsel_scatters.fetch_add(1, Ordering::Relaxed);
        self.jobs_dispatched
            .fetch_add(threads as u64, Ordering::Relaxed);

        let cursor = AtomicUsize::new(0);
        let panicked = AtomicBool::new(false);
        let claim = || {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let start = i.checked_mul(morsel).filter(|_| i < num)?;
            Some((i, items.get(start..items.len().min(start + morsel))?))
        };
        let work = || -> Share<R> {
            let _inside = Restore::set(&IN_SCATTER, true);
            let mut mapped = Vec::new();
            while !panicked.load(Ordering::Relaxed) && !stopped() {
                let Some((i, chunk)) = claim() else { break };
                match panic::catch_unwind(AssertUnwindSafe(|| f(chunk))) {
                    Ok(r) => mapped.push((i, r)),
                    Err(payload) => {
                        panicked.store(true, Ordering::Relaxed);
                        return (mapped, Some((i, payload)));
                    }
                }
            }
            (mapped, None)
        };
        let shares: Vec<thread::Result<Share<R>>> = thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(work)).collect();
            let mine = work();
            let joined = handles.into_iter().map(|h| h.join());
            std::iter::once(Ok(mine)).chain(joined).collect()
        });
        let mut mapped = Vec::new();
        let mut first_panic = None;
        for share in shares {
            // A thread's `f` panics inside `work`; only `stop` could
            // unwind a thread itself, and that ranks after every morsel.
            let panic = match share {
                Ok((share, panic)) => {
                    mapped.extend(share);
                    panic
                }
                Err(payload) => Some((usize::MAX, payload)),
            };
            first_panic = first_panic.into_iter().chain(panic).min_by_key(|(i, _)| *i);
        }
        if let Some((_, payload)) = first_panic {
            panic::resume_unwind(payload);
        }
        self.morsels_claimed
            .fetch_add(mapped.len() as u64, Ordering::Relaxed);
        mapped.sort_unstable_by_key(|(i, _)| *i);
        mapped.into_iter().map(|(_, r)| r).collect()
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
        let lens = pool.scatter_morsels(&refs, 1, None, |one| {
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
        let sums = pool.scatter_morsels(&items, 256, None, |m| m.iter().sum::<u64>());
        let expect: Vec<u64> = items.chunks(256).map(|m| m.iter().sum()).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn scatter_runs_on_at_most_size_threads() {
        let items: Vec<u32> = (0..4096).collect();
        for size in [4, 1] {
            let pool = WorkPool::new(size);
            // 64 morsels, but no more threads than the pool is wide.
            let ids = pool.scatter_morsels(&items, 64, None, |m| {
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
            pool.scatter_morsels(&items, 4, None, |m| {
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
        let out = pool.scatter_morsels(&items, 4, None, |m| m.len());
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
            pool.scatter_morsels(&items, 2, None, |m| {
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
        let out = pool.scatter_morsels(&items, 7, None, |m| m.to_vec());
        assert_eq!(out.concat(), items);
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn nested_morsel_scatter_runs_inline_and_completes() {
        let pool = WorkPool::new(2);
        let items: Vec<u64> = (0..16).collect();
        let out = pool.scatter_morsels(&items, 2, None, |m| {
            let inner: Vec<u64> = m.to_vec();
            pool.scatter_morsels(&inner, 1, None, |x| x[0] * 2)
                .into_iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = items
            .chunks(2)
            .map(|m| m.iter().map(|x| x * 2).sum())
            .collect();
        assert_eq!(out, expect);
        // The outer scatter's one thread, and none from the inner ones.
        assert_eq!(pool.stats().jobs_dispatched, 1);
        assert_eq!(pool.width_here(), 2, "the caller is outside again");
    }

    #[test]
    fn an_installed_pool_is_current_on_its_thread_only() {
        static NARROW: OnceLock<WorkPool> = OnceLock::new();
        let narrow = NARROW.get_or_init(|| WorkPool::new(1));
        assert!(std::ptr::eq(WorkPool::current(), WorkPool::global()));
        narrow.install(|| {
            assert!(std::ptr::eq(WorkPool::current(), narrow));
            let elsewhere = thread::spawn(|| std::ptr::eq(WorkPool::current(), WorkPool::global()));
            assert!(elsewhere.join().unwrap());
        });
        assert!(std::ptr::eq(WorkPool::current(), WorkPool::global()));
    }

    #[test]
    fn empty_and_single_morsel_edges() {
        let pool = WorkPool::new(4);
        let out: Vec<usize> = pool.scatter_morsels(&[] as &[u32], 8, None, |m| m.len());
        assert!(out.is_empty());
        // One morsel runs inline: fan-out would be pure overhead.
        let out = pool.scatter_morsels(&[1u32, 2, 3], 8, None, |m| m.len());
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
