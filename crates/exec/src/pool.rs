//! Fixed-size work pool with one scoped fan-out, the morsel scatter.
//!
//! The pool owns `size - 1` persistent worker threads, each fed by its
//! own single-consumer channel (no shared run-queue lock on the dispatch
//! path). The caller of [`WorkPool::scatter_morsels`] acts as worker
//! zero: it claims morsels off the same cursor the workers' runners do,
//! so a pool of size 1 has no workers, spawns no threads, and degrades
//! to a plain in-order sequential map.
//!
//! The scatter is *scoped*: the closure and inputs may borrow from the
//! caller's stack even though the runners are sent to `'static` worker
//! threads. Soundness rests on one invariant, enforced by construction
//! below: **the scatter does not return (or unwind) until it has
//! collected a completion message for every runner it dispatched**, so
//! no borrow escapes the call. A panic inside a morsel is caught by its
//! claimer, shipped back as a completion, and re-raised on the caller
//! after every runner has finished.

use mp_sync::{LockRank, OrderedMutex};
use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Type-erased unit of work shipped to a worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A panic payload carried from a worker back to the scattering caller.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

thread_local! {
    /// Set for the lifetime of a pool worker thread: a nested scatter
    /// issued from inside a morsel runs inline instead of re-entering the
    /// pool, which would risk starving the pool of workers (deadlock
    /// when every worker blocks waiting for a slot).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Counters describing pool usage, for benches and EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Scatter calls that ran inline (size 1, at most one morsel, or nested).
    pub inline_runs: u64,
    /// Always 0: nothing increments it since the per-item `scatter` folded
    /// into [`WorkPool::scatter_morsels`] (every `serve` workload already
    /// read 0). The frozen harness prints it as `exec.jobs_dispatched`;
    /// ROADMAP item 9-I retires row and field together.
    pub jobs_dispatched: u64,
    /// Morsel scatters that fanned out to worker threads.
    pub morsel_scatters: u64,
    /// Runner jobs shipped across all morsel scatters: at most one per
    /// worker per scatter, whatever the morsel count.
    pub morsel_runners: u64,
    /// Morsels claimed off the shared cursor across all morsel scatters
    /// (by runners and scattering callers alike).
    pub morsels_claimed: u64,
}

/// A fixed-size pool of persistent worker threads.
///
/// Cheap to share by reference; the process-wide instance is
/// [`WorkPool::global`]. Dropping a non-global pool closes the feed
/// channels and the workers exit after draining them.
pub struct WorkPool {
    senders: Vec<mpsc::Sender<Job>>,
    cursor: AtomicUsize,
    stats: OrderedMutex<PoolStats>,
}

/// One write-once output slot of a morsel scatter.
///
/// The claiming thread — unique per slot index, because indices are
/// handed out by a `fetch_add` on the shared cursor — is the only
/// writer; the scattering caller reads the slot only after collecting a
/// completion from every runner, so no two accesses ever overlap.
struct MorselSlot<R>(UnsafeCell<MaybeUninit<R>>);

// SAFETY: see the type docs — slot `k` is written by exactly one claimer
// and read only after the scatter's completion barrier.
unsafe impl<R: Send> Sync for MorselSlot<R> {}

/// Shared state of one in-flight morsel scatter: the input slice, the
/// claim cursor, and the pre-allocated output slots. Allocated once per
/// scatter (O(morsels) slots in two `Vec`s), then raced over by the
/// caller and up to `workers` runner jobs.
struct MorselRun<'a, T, R, F> {
    items: &'a [T],
    morsel: usize,
    num: usize,
    cursor: AtomicUsize,
    abort: AtomicBool,
    done: Vec<AtomicBool>,
    slots: Vec<MorselSlot<R>>,
    f: &'a F,
}

impl<T: Sync, R: Send, F: Fn(&[T]) -> R + Sync> MorselRun<'_, T, R, F> {
    /// Claim morsels off the shared cursor until the input is exhausted
    /// (or another claimer panicked). A panic in `f` is caught here,
    /// flips the abort flag so the other claimers stop early, and is
    /// returned to be re-raised on the scattering caller.
    fn claim(&self) -> Result<(), PanicPayload> {
        loop {
            if self.abort.load(Ordering::Relaxed) {
                return Ok(());
            }
            let k = self.cursor.fetch_add(1, Ordering::Relaxed);
            if k >= self.num {
                return Ok(());
            }
            let lo = k * self.morsel;
            let hi = (lo + self.morsel).min(self.items.len());
            // mp-flow: allow(R002) — `k < num = ceil(len/morsel)` was checked above, so `lo <= (num-1)*morsel < len` and `hi` is clamped to `len`
            match panic::catch_unwind(AssertUnwindSafe(|| (self.f)(&self.items[lo..hi]))) {
                Ok(v) => {
                    // SAFETY: index `k` was claimed exclusively by the
                    // `fetch_add` above; nobody else writes this slot.
                    // mp-flow: allow(R002) — `k < self.num == slots.len()` by the claim guard above
                    unsafe { (*self.slots[k].0.get()).write(v) };
                    // mp-flow: allow(R002) — `k < self.num == done.len()` by the claim guard above
                    self.done[k].store(true, Ordering::Release);
                }
                Err(p) => {
                    self.abort.store(true, Ordering::Relaxed);
                    return Err(p);
                }
            }
        }
    }
}

impl WorkPool {
    /// Pool with `size` execution slots: the caller plus `size - 1`
    /// worker threads. `size` is clamped to at least 1.
    pub fn new(size: usize) -> Self {
        let workers = size.max(1) - 1;
        let mut senders = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = mpsc::channel::<Job>();
            std::thread::Builder::new()
                .name(format!("mp-exec-{i}"))
                .spawn(move || worker_loop(rx))
                // mp-flow: allow(R001) — spawn failure at one-time pool construction is an unrecoverable resource exhaustion, not a request-path condition
                .expect("spawn mp-exec worker");
            senders.push(tx);
        }
        WorkPool {
            senders,
            cursor: AtomicUsize::new(0),
            stats: OrderedMutex::new(LockRank::ExecPool, PoolStats::default()),
        }
    }

    /// The process-wide pool, sized by `MP_EXEC_WORKERS` when set (>= 1)
    /// and the machine's available parallelism otherwise. On a
    /// single-core host this is size 1: no threads are ever spawned and
    /// every scatter runs inline.
    pub fn global() -> &'static WorkPool {
        static GLOBAL: OnceLock<WorkPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkPool::new(default_size()))
    }

    /// Execution slots (workers plus the participating caller).
    pub fn size(&self) -> usize {
        self.senders.len() + 1
    }

    /// Snapshot of the usage counters.
    pub fn stats(&self) -> PoolStats {
        *self.stats.lock()
    }

    /// Morsel-driven map over a slice, the pool's one fan-out: `items` is
    /// cut into contiguous morsels of `morsel` items (the last may be
    /// short; `morsel == 1` maps item by item, which is how heterogeneous
    /// per-shard work is fanned out), and the caller plus up to
    /// `workers` *runner* jobs claim morsel indices off a shared atomic
    /// cursor, writing each result into its pre-allocated output slot.
    /// Output order equals input order by construction — slot `k` holds
    /// `f(&items[k*morsel ..])` — with no per-morsel boxing, channel send,
    /// or gather sort: the whole scatter allocates two `Vec`s of
    /// `num_morsels` slots and dispatches at most one boxed runner per
    /// worker thread.
    ///
    /// Scoped as the module docs argue. A panic in `f` aborts the
    /// remaining claims, is carried back, and re-raised here after the
    /// barrier; initialized slots are dropped first.
    pub fn scatter_morsels<T, R, F>(&self, items: &[T], morsel: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        let morsel = morsel.max(1);
        let num = items.len().div_ceil(morsel);
        let workers = self.senders.len();
        if workers == 0 || num <= 1 || IN_WORKER.with(|w| w.get()) {
            self.stats.lock().inline_runs += 1;
            return items.chunks(morsel).map(f).collect();
        }

        let run = MorselRun {
            items,
            morsel,
            num,
            cursor: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            done: (0..num).map(|_| AtomicBool::new(false)).collect(),
            slots: (0..num)
                .map(|_| MorselSlot(UnsafeCell::new(MaybeUninit::uninit())))
                .collect(),
            f: &f,
        };
        let rref = &run;
        let (done_tx, done_rx) = mpsc::channel::<Result<(), PanicPayload>>();
        // More runners than morsels would only pay dispatch to claim
        // nothing; the caller itself covers one share.
        let runners = workers.min(num - 1);
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        let mut dispatched = 0usize;
        for w in 0..runners {
            // mp-lint: allow(H001) — one Sender clone per runner, bounded by the worker count per scatter, never per document
            let tx = done_tx.clone();
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let r = rref.claim();
                let _ = tx.send(r);
            });
            // SAFETY: the runner borrows `run` (and through it `items`
            // and `f`) from this stack frame. Every runner sends exactly
            // one completion as its last action (panic or not — `claim`
            // catches), and the recv loop below blocks until
            // `dispatched` completions have arrived before this frame
            // can return or unwind, so every borrow in the erased
            // closure outlives its use.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            // mp-flow: allow(R002) — index is reduced modulo `workers == self.senders.len()`, nonzero on this branch
            match self.senders[(start + w) % workers].send(job) {
                Ok(()) => dispatched += 1,
                Err(mpsc::SendError(job)) => {
                    // Worker gone (only possible mid-teardown): run the
                    // runner here; it still sends its completion.
                    job();
                    dispatched += 1;
                }
            }
        }
        drop(done_tx);

        let mut first_panic = rref.claim().err();
        for _ in 0..dispatched {
            // mp-flow: allow(R001) — every runner sends exactly one completion (panic or not, see safety comment above), so recv cannot see a hung-up channel early
            if let Err(p) = done_rx.recv().expect("mp-exec runner completion") {
                if first_panic.is_none() {
                    first_panic = Some(p);
                }
            }
        }
        {
            let mut st = self.stats.lock();
            st.morsel_scatters += 1;
            st.morsel_runners += dispatched as u64;
            st.morsels_claimed += run.cursor.load(Ordering::Relaxed).min(num) as u64;
        }

        if let Some(p) = first_panic {
            for (k, flag) in run.done.iter().enumerate() {
                if flag.load(Ordering::Acquire) {
                    // SAFETY: slot `k` was fully written before its done
                    // flag was released, and no thread touches it again.
                    // mp-flow: allow(R002) — `k` enumerates `done`, and `slots.len() == done.len()` by construction
                    unsafe { (*run.slots[k].0.get()).assume_init_drop() };
                }
            }
            panic::resume_unwind(p);
        }
        run.slots
            .into_iter()
            .map(|s| {
                // SAFETY: no claimer panicked, so every morsel index was
                // claimed and its slot written before the completion
                // barrier above; the channel recv orders those writes
                // before this read.
                unsafe { s.0.into_inner().assume_init() }
            })
            .collect()
    }
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkPool")
            .field("size", &self.size())
            .finish_non_exhaustive()
    }
}

/// Pool size for [`WorkPool::global`].
fn default_size() -> usize {
    std::env::var("MP_EXEC_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

fn worker_loop(rx: mpsc::Receiver<Job>) {
    IN_WORKER.with(|w| w.set(true));
    while let Ok(job) = rx.recv() {
        // Panics are caught inside the job itself (and shipped back to
        // the scattering caller), so the loop — and the thread — outlive
        // any failing job.
        job();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    fn morsel_dispatch_is_o_workers_not_o_morsels() {
        let pool = WorkPool::new(4);
        let items: Vec<u32> = (0..4096).collect();
        // 64 morsels, but only `workers` (3) boxed runner jobs may ship:
        // the steady-state morsel path allocates no per-morsel job and
        // sends nothing per morsel.
        let out = pool.scatter_morsels(&items, 64, |m| m.len());
        assert_eq!(out.len(), 64);
        let st = pool.stats();
        assert_eq!(st.morsel_scatters, 1);
        assert_eq!(st.morsels_claimed, 64);
        assert!(
            st.morsel_runners <= 3,
            "runner jobs must be bounded by workers, got {}",
            st.morsel_runners
        );
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
        // The runners caught the panic locally and keep serving.
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
        let st = pool.stats();
        assert_eq!(st.morsel_scatters, 0);
        assert_eq!(st.inline_runs, 1);
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
