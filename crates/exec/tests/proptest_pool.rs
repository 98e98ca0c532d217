//! Property-based oracle for the morsel-driven scatter: across pool
//! sizes, input sizes, and morsel widths, `scatter_morsels` must be
//! observationally identical to the sequential `chunks().map()` it
//! replaces — same per-morsel results, in input order — and an injected
//! panic in any morsel must propagate to the caller while leaving the
//! pool usable.
//!
//! The early-stop arm gives the scatter a stop that turns `true` once
//! the morsels mapped so far hold enough weight: the results must be a
//! prefix of the oracle's, in input order, that holds the weight (or
//! every morsel), and no thread may start more than one morsel after
//! the stop turned `true`. The panic arm checks that a panic comes back
//! only after every thread has stopped, with the payload of the first
//! panicking morsel in input order.

use mp_exec::WorkPool;
use proptest::prelude::*;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ThreadId;

/// The sequential oracle: what any correct fan-out must produce.
fn sequential(items: &[u64], morsel: usize, salt: u64) -> Vec<Vec<u64>> {
    items
        .chunks(morsel)
        .map(|c| c.iter().map(|x| x.wrapping_mul(31) ^ salt).collect())
        .collect()
}

/// A morsel's weight in the early-stop arm: its items divisible by 3.
fn weight(c: &[u64]) -> usize {
    c.iter().filter(|x| *x % 3 == 0).count()
}

/// The message of a panic payload.
fn message(payload: &(dyn std::any::Any + Send)) -> String {
    (payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Order and content match the sequential oracle for every pool
    /// size from 1 to 8, including sizes past the host's core count.
    #[test]
    fn morsel_scatter_matches_sequential_oracle(
        items in prop::collection::vec(any::<u64>(), 0..200),
        morsel in 1usize..40,
        workers in 1usize..=8,
        salt in any::<u64>(),
    ) {
        let pool = WorkPool::new(workers);
        let got = pool.scatter_morsels(&items, morsel, None, |c: &[u64]| {
            c.iter().map(|x| x.wrapping_mul(31) ^ salt).collect::<Vec<u64>>()
        });
        prop_assert_eq!(got, sequential(&items, morsel, salt));
    }

    /// A panic in an arbitrary morsel propagates to the caller, and the
    /// pool survives: the very next scatter on the same pool still
    /// matches the oracle. Claimed-but-unpoisoned morsels may or may not
    /// have run — the property is only that the caller observes the
    /// panic and nothing leaks into later scatters.
    #[test]
    fn injected_panic_propagates_and_pool_survives(
        len in 1usize..120,
        morsel in 1usize..16,
        workers in 1usize..=4,
        poison_seed in any::<u64>(),
    ) {
        let items: Vec<u64> = (0..len as u64).collect();
        let poison = poison_seed % len as u64;
        let pool = WorkPool::new(workers);

        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scatter_morsels(&items, morsel, None, |c: &[u64]| {
                if c.contains(&poison) {
                    panic!("injected morsel failure at {poison}");
                }
                c.to_vec()
            })
        }));
        prop_assert!(result.is_err(), "poisoned morsel must panic the caller");

        // The pool must still dispatch and produce oracle-identical
        // results after unwinding.
        let got = pool.scatter_morsels(&items, morsel, None, |c: &[u64]| {
            c.iter().map(|x| x.wrapping_mul(31)).collect::<Vec<u64>>()
        });
        prop_assert_eq!(got, sequential(&items, morsel, 0));
    }

    /// With a stop, the results are the oracle's first morsels, in input
    /// order, and hold the weight the stop waits for unless every morsel
    /// ran; no thread starts more than one morsel once the stop holds.
    #[test]
    fn an_early_stop_keeps_a_prefix_and_one_morsel_per_thread(
        len in 0usize..400,
        morsel in 1usize..24,
        workers in 1usize..=4,
        need in 0usize..150,
    ) {
        let items: Vec<u64> = (0..len as u64).collect();
        let pool = WorkPool::new(workers);
        let mapped = AtomicUsize::new(0);
        let stop = || mapped.load(Ordering::SeqCst) >= need;
        // Each result says which thread mapped it if the stop already
        // held when it started.
        let got = pool.scatter_morsels(&items, morsel, Some(&stop), |c: &[u64]| {
            let late = stop().then(|| std::thread::current().id());
            mapped.fetch_add(weight(c), Ordering::SeqCst);
            (c.iter().map(|x| x.wrapping_mul(31)).collect::<Vec<u64>>(), late)
        });
        let (got, late): (Vec<Vec<u64>>, Vec<Option<ThreadId>>) = got.into_iter().unzip();
        let oracle = sequential(&items, morsel, 0);
        prop_assert_eq!(&got[..], &oracle[..got.len()]);
        let held: usize = items.chunks(morsel).take(got.len()).map(weight).sum();
        prop_assert!(held >= need || got.len() == oracle.len(), "{} of {} weight", held, need);
        let mut late_per_thread: HashMap<ThreadId, usize> = HashMap::new();
        for id in late.into_iter().flatten() {
            *late_per_thread.entry(id).or_default() += 1;
        }
        let late = late_per_thread;
        prop_assert!(late.values().all(|&n| n <= 1), "{:?}", late);
        prop_assert!(late.values().sum::<usize>() < workers, "{:?}", late);
    }

    /// A panic comes back only once no thread is still mapping, and it
    /// is the first panicking morsel's, in input order, whichever thread
    /// panicked first.
    #[test]
    fn a_panic_is_raised_after_every_thread_stops(
        len in 2usize..200,
        morsel in 1usize..8,
        workers in 1usize..=4,
        poison in (any::<u64>(), any::<u64>()),
    ) {
        let items: Vec<u64> = (0..len as u64).collect();
        let (a, b) = (poison.0 % len as u64, poison.1 % len as u64);
        let first = items.chunks(morsel).position(|c| c.contains(&a) || c.contains(&b)).unwrap();
        let pool = WorkPool::new(workers);
        let running = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scatter_morsels(&items, morsel, None, |c: &[u64]| {
                running.fetch_add(1, Ordering::SeqCst);
                std::thread::yield_now();
                let at = c[0] as usize / morsel;
                running.fetch_sub(1, Ordering::SeqCst);
                if c.contains(&a) || c.contains(&b) {
                    panic!("morsel {at}");
                }
                c.len()
            })
        }));
        prop_assert_eq!(running.load(Ordering::SeqCst), 0);
        let payload = result.expect_err("a poisoned morsel panics the caller");
        prop_assert_eq!(message(&*payload), format!("morsel {first}"));
    }
}
