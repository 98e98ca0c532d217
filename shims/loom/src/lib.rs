//! Offline stand-in for `loom`.
//!
//! The real loom exhaustively enumerates thread interleavings under a
//! cooperative scheduler. That engine cannot be vendored here, so this
//! shim approximates it the way `shuttle`'s random scheduler does:
//! [`model`] runs the test body many times (default 64, override with
//! `LOOM_ITERS`), and every synchronization operation injects a
//! deterministic pseudo-random yield so the OS scheduler is shaken into
//! different interleavings on each iteration. Tests written against this
//! shim use the real loom API surface (`loom::model`, `loom::thread`,
//! `loom::sync::{Arc, Mutex, RwLock}`) and upgrade transparently when the
//! real crate is available.

// This crate implements the locks the workspace's `clippy.toml` keeps
// everyone else from using directly.
#![allow(clippy::disallowed_types)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-iteration seed; mixed into each thread's local RNG so schedules
/// differ across iterations but a failing iteration is reproducible.
static MODEL_SEED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL_RNG: Cell<u64> = const { Cell::new(0) };
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draw from the thread-local RNG, lazily seeding it from the model seed
/// and the thread id so sibling threads diverge.
fn next_rand() -> u64 {
    LOCAL_RNG.with(|c| {
        let mut s = c.get();
        if s == 0 {
            let tid = {
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                std::thread::current().id().hash(&mut h);
                h.finish()
            };
            s = splitmix(MODEL_SEED.load(Ordering::Relaxed) ^ tid) | 1;
        }
        s = splitmix(s);
        c.set(s);
        s
    })
}

/// Perturb the schedule at a synchronization point.
fn maybe_yield() {
    match next_rand() % 8 {
        0 | 1 => std::thread::yield_now(),
        2 => {
            for _ in 0..(next_rand() % 64) {
                std::hint::spin_loop();
            }
        }
        _ => {}
    }
}

/// Run `f` under the (randomized) model: many iterations, each with a
/// fresh seed driving the yield points. Panics propagate, so an assertion
/// failure in any explored schedule fails the test.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    let iters: u64 = std::env::var("LOOM_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    for i in 0..iters {
        MODEL_SEED.store(splitmix(i.wrapping_add(1)), Ordering::Relaxed);
        LOCAL_RNG.with(|c| c.set(0));
        f();
    }
}

/// Threads with schedule perturbation at spawn and join.
pub mod thread {
    pub use std::thread::{current, JoinHandle};

    /// Spawn a model thread; yields before the body runs so the spawner
    /// and the child race from the first instruction.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        std::thread::spawn(move || {
            super::maybe_yield();
            f()
        })
    }

    /// Yield point.
    pub fn yield_now() {
        super::maybe_yield();
        std::thread::yield_now();
    }
}

/// Synchronization primitives with yield injection on every acquisition.
pub mod sync {
    pub use std::sync::Arc;

    /// Atomics are passed through; the yield points around locks provide
    /// the schedule diversity.
    pub mod atomic {
        pub use std::sync::atomic::*;
    }

    /// `std::sync::Mutex` with a pre-acquisition yield point (std-shaped
    /// API, like the real loom).
    #[derive(Default)]
    pub struct Mutex<T: ?Sized> {
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Wrap a value.
        pub fn new(value: T) -> Self {
            Mutex {
                inner: std::sync::Mutex::new(value),
            }
        }

        /// Consume, returning the inner value.
        pub fn into_inner(self) -> std::sync::LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquire, yielding first so contenders interleave.
        pub fn lock(&self) -> std::sync::LockResult<std::sync::MutexGuard<'_, T>> {
            super::maybe_yield();
            self.inner.lock()
        }

        /// Non-blocking acquire.
        pub fn try_lock(&self) -> std::sync::TryLockResult<std::sync::MutexGuard<'_, T>> {
            super::maybe_yield();
            self.inner.try_lock()
        }
    }

    /// `std::sync::RwLock` with pre-acquisition yield points.
    #[derive(Default)]
    pub struct RwLock<T: ?Sized> {
        inner: std::sync::RwLock<T>,
    }

    impl<T> RwLock<T> {
        /// Wrap a value.
        pub fn new(value: T) -> Self {
            RwLock {
                inner: std::sync::RwLock::new(value),
            }
        }

        /// Consume, returning the inner value.
        pub fn into_inner(self) -> std::sync::LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Shared acquire with a yield point.
        pub fn read(&self) -> std::sync::LockResult<std::sync::RwLockReadGuard<'_, T>> {
            super::maybe_yield();
            self.inner.read()
        }

        /// Exclusive acquire with a yield point.
        pub fn write(&self) -> std::sync::LockResult<std::sync::RwLockWriteGuard<'_, T>> {
            super::maybe_yield();
            self.inner.write()
        }

        /// Non-blocking shared acquire.
        pub fn try_read(&self) -> std::sync::TryLockResult<std::sync::RwLockReadGuard<'_, T>> {
            super::maybe_yield();
            self.inner.try_read()
        }

        /// Non-blocking exclusive acquire.
        pub fn try_write(&self) -> std::sync::TryLockResult<std::sync::RwLockWriteGuard<'_, T>> {
            super::maybe_yield();
            self.inner.try_write()
        }
    }
}

/// Spin-loop hint (yield point in the model).
pub mod hint {
    /// Model-aware spin hint.
    pub fn spin_loop() {
        super::maybe_yield();
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::sync::{Arc, Mutex};

    #[test]
    fn model_runs_and_counts() {
        super::model(|| {
            let m = Arc::new(Mutex::new(0u32));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let m = m.clone();
                    super::thread::spawn(move || {
                        *m.lock().unwrap() += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*m.lock().unwrap(), 3);
        });
    }
}
