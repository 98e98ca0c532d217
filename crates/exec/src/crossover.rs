//! Adaptive seq-vs-parallel crossover for homogeneous scans.
//!
//! Hard-coded parallelism thresholds mistune the moment the workload or
//! the host changes: the seed bench recorded a 100k-doc shard scatter
//! *losing* to sequential iteration because every query paid fan-out
//! overhead whether or not parallelism could pay for it. This module
//! prices the decision instead of guessing it:
//!
//! * the **per-item cost** of the sequential path is learned online — an
//!   EWMA over observed sequential scans, in ns/item;
//! * the **dispatch overhead** of a fan-out is calibrated per pool by
//!   [`WorkPool::dispatch_overhead_ns`] (timed empty dispatches on this
//!   host, not a constant);
//! * the **effective slots** are the pool size capped by the machine's
//!   available parallelism, so an oversized pool on a small host is
//!   priced at what it can actually run.
//!
//! A scan of `n` items goes parallel when the work parallelism can take
//! off the critical path exceeds twice the dispatch cost:
//!
//! ```text
//! n · per_item_ns · (1 − 1/slots)  >  2 · dispatch_ns
//! ```
//!
//! The 2× margin keeps borderline scans sequential — mispredicting
//! "sequential" costs a fraction of one scan, mispredicting "parallel"
//! costs dispatch on every query. `MP_EXEC_PARALLEL=always|never` force
//! the decision for benches and CI.

use crate::WorkPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Scans shorter than this never update the cost model: their timing is
/// dominated by fixed per-scan costs, which would inflate the per-item
/// estimate.
const MIN_SAMPLE_ITEMS: usize = 64;

/// Forced crossover mode from `MP_EXEC_PARALLEL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Auto,
    Always,
    Never,
}

fn mode() -> Mode {
    static MODE: OnceLock<Mode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("MP_EXEC_PARALLEL").as_deref() {
        Ok("always") | Ok("par") | Ok("parallel") => Mode::Always,
        Ok("never") | Ok("seq") | Ok("sequential") => Mode::Never,
        _ => Mode::Auto,
    })
}

/// The verdict for one scan, with the model inputs that produced it —
/// surfaced through `explain` so a slow query can show *why* it ran
/// sequentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Fan out over the pool, or stay on the caller's thread.
    pub parallel: bool,
    /// Effective execution slots the decision was priced at.
    pub slots: usize,
    /// Learned sequential cost in ns/item (0 = no data yet).
    pub per_item_ns: u64,
    /// Calibrated fan-out cost for the pool, in ns.
    pub dispatch_ns: u64,
    /// Item count at which parallelism starts to win under the current
    /// estimates (`usize::MAX` when it can never win, e.g. one slot).
    pub threshold_items: usize,
}

/// Online seq-vs-parallel decision point for one scan family.
///
/// Each homogeneous scan family (filter matching, map phases, …) keeps
/// its own `Crossover`, because their per-item costs differ by orders of
/// magnitude. Construction is `const` so call sites can hold one in a
/// `static`.
#[derive(Debug)]
pub struct Crossover {
    /// EWMA of sequential per-item cost, ns (0 = unseeded).
    per_item_ns: AtomicU64,
}

impl Crossover {
    /// An unseeded crossover: decides sequential until the first
    /// recorded sample, then adapts.
    pub const fn new() -> Self {
        Crossover {
            per_item_ns: AtomicU64::new(0),
        }
    }

    /// Fold one observed *sequential* scan into the cost model. Samples
    /// under [`MIN_SAMPLE_ITEMS`] items are ignored (fixed costs would
    /// dominate them). Quarter-weight EWMA: noisy outliers decay in a
    /// few scans without whiplashing the decision.
    pub fn record_seq(&self, items: usize, elapsed: Duration) {
        if items < MIN_SAMPLE_ITEMS {
            return;
        }
        let sample = ((elapsed.as_nanos() as u64) / items as u64).max(1);
        let old = self.per_item_ns.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            old - old / 4 + sample / 4
        };
        self.per_item_ns.store(new, Ordering::Relaxed);
    }

    /// The learned sequential per-item cost in ns (0 until seeded).
    pub fn per_item_ns(&self) -> u64 {
        self.per_item_ns.load(Ordering::Relaxed)
    }

    /// Price a scan of `n` items on `pool` and decide seq vs parallel.
    pub fn decide(&self, pool: &WorkPool, n: usize) -> Decision {
        let slots = pool.effective_slots();
        let per_item_ns = self.per_item_ns.load(Ordering::Relaxed);
        let can_fan_out = slots > 1 && pool.size() > 1;
        let dispatch_ns = if can_fan_out {
            pool.dispatch_overhead_ns()
        } else {
            0
        };
        let threshold_items = if !can_fan_out || per_item_ns == 0 {
            usize::MAX
        } else {
            // Smallest n with n · per_item · (1 − 1/slots) > 2 · dispatch.
            let saved_per_item = per_item_ns as u128 * (slots as u128 - 1) / slots as u128;
            (2 * dispatch_ns as u128)
                .checked_div(saved_per_item)
                .map_or(usize::MAX, |t| (t + 1) as usize)
        };
        let parallel = match mode() {
            Mode::Always => pool.size() > 1,
            Mode::Never => false,
            Mode::Auto => can_fan_out && n >= threshold_items,
        };
        Decision {
            parallel,
            slots,
            per_item_ns,
            dispatch_ns,
            threshold_items,
        }
    }
}

impl Default for Crossover {
    fn default() -> Self {
        Crossover::new()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn unseeded_model_stays_sequential() {
        let cx = Crossover::new();
        let pool = WorkPool::new(4);
        let d = cx.decide(&pool, 1_000_000);
        assert_eq!(d.per_item_ns, 0);
        assert_eq!(d.threshold_items, usize::MAX);
        if mode() == Mode::Auto {
            assert!(!d.parallel, "no cost data must mean no fan-out");
        }
    }

    #[test]
    fn tiny_samples_are_ignored() {
        let cx = Crossover::new();
        cx.record_seq(MIN_SAMPLE_ITEMS - 1, Duration::from_millis(10));
        assert_eq!(cx.per_item_ns(), 0);
        cx.record_seq(1000, Duration::from_micros(250));
        assert_eq!(cx.per_item_ns(), 250);
    }

    #[test]
    fn ewma_converges_toward_recent_cost() {
        let cx = Crossover::new();
        cx.record_seq(1000, Duration::from_micros(400));
        for _ in 0..32 {
            cx.record_seq(1000, Duration::from_micros(100));
        }
        let per = cx.per_item_ns();
        assert!((75..=125).contains(&per), "per_item_ns={per}");
    }

    #[test]
    fn single_slot_pools_never_fan_out() {
        let cx = Crossover::new();
        cx.record_seq(10_000, Duration::from_millis(10));
        let pool = WorkPool::new(1);
        let d = cx.decide(&pool, 10_000_000);
        assert!(!d.parallel);
        assert_eq!(d.threshold_items, usize::MAX);
        assert_eq!(d.dispatch_ns, 0);
    }

    #[test]
    fn threshold_scales_with_dispatch_cost() {
        let cx = Crossover::new();
        // 1 µs/item: expensive work parallelizes at small n.
        cx.record_seq(1000, Duration::from_millis(1));
        let pool = WorkPool::new(4);
        let d = cx.decide(&pool, 0);
        if d.slots > 1 {
            // threshold ≈ 2·dispatch / (per_item · (1 − 1/slots)): with
            // per_item = 1000ns a small item count, larger the fewer
            // slots share the work (dispatch/250 at 2, /375 at 4).
            let saved_per_item = 1000 * (d.slots - 1) / d.slots;
            assert!(d.threshold_items <= 2 * d.dispatch_ns as usize / saved_per_item + 1);
            let big = cx.decide(&pool, d.threshold_items);
            if mode() == Mode::Auto {
                assert!(big.parallel);
                assert!(!cx.decide(&pool, d.threshold_items - 1).parallel);
            }
        }
    }
}
