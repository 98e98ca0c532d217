//! The global allocator of the allocation tests. Every call is forwarded
//! unchanged to `System` and counted for the thread that made it:
//! allocations (`alloc` and `realloc`), frees (`dealloc`) and the largest
//! size asked for. On a thread that turned [`record`] on, each call is
//! also logged in call order with its address and size, so a test can
//! state what it checks on allocation *order* rather than on the
//! addresses one allocator happens to hand out.
//!
//! A test binary installs it with one line, `mp_testalloc::install!();`.
//! Each such test is its own binary, because the allocator belongs to
//! the whole process. Nothing the allocator itself runs allocates: the
//! counters are const-initialized thread-locals without destructors,
//! and the log is static.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Make [`Counting`] the binary's `#[global_allocator]`.
#[macro_export]
macro_rules! install {
    () => {
        #[global_allocator]
        static GLOBAL: $crate::Counting = $crate::Counting;
    };
}

/// What a thread's allocator calls came to.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// `alloc` and `realloc` calls.
    pub allocations: u64,
    /// `dealloc` calls.
    pub frees: u64,
    /// The largest size an `alloc` or `realloc` asked for.
    pub largest: usize,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { allocations: 0, frees: 0, largest: 0 })
    };
    /// Set on a thread whose calls are logged.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

/// What `f` cost the calling thread, and what it returned. `largest` is
/// the largest request made inside `f`.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = COUNTS.with(|c| {
        c.replace(Counts {
            largest: 0,
            ..c.get()
        })
    });
    let out = f();
    let after = COUNTS.with(Cell::get);
    let largest = before.largest.max(after.largest);
    COUNTS.with(|c| c.set(Counts { largest, ..after }));
    let cost = Counts {
        allocations: after.allocations - before.allocations,
        frees: after.frees - before.frees,
        largest: after.largest,
    };
    (out, cost)
}

/// One logged allocator call; its index in [`events`] is its sequence
/// number. A `realloc` is logged as the free of the old block followed
/// by the allocation of the new one.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    Alloc { addr: usize, size: usize },
    Free { addr: usize },
}

/// Calls the log keeps; [`logged`] counts on past it.
pub const LOG_CAPACITY: usize = 1 << 17;

/// The log: address and size per call, [`FREED`] for the size of a free.
static ADDRS: [AtomicUsize; LOG_CAPACITY] = [const { AtomicUsize::new(0) }; LOG_CAPACITY];
static SIZES: [AtomicUsize; LOG_CAPACITY] = [const { AtomicUsize::new(0) }; LOG_CAPACITY];
static LOGGED: AtomicUsize = AtomicUsize::new(0);
const FREED: usize = usize::MAX;

/// Log the calling thread's allocator calls from now on, or stop.
pub fn record(on: bool) {
    RECORDING.with(|r| r.set(on));
}

/// Calls logged so far, on every recording thread.
pub fn logged() -> usize {
    LOGGED.load(Ordering::Relaxed)
}

/// The calls the log kept, in call order.
pub fn events() -> Vec<Event> {
    (0..logged().min(LOG_CAPACITY))
        .map(|seq| {
            let addr = ADDRS[seq].load(Ordering::Relaxed);
            match SIZES[seq].load(Ordering::Relaxed) {
                FREED => Event::Free { addr },
                size => Event::Alloc { addr, size },
            }
        })
        .collect()
}

fn log(addr: *mut u8, size: usize) {
    if !RECORDING.with(Cell::get) {
        return;
    }
    let seq = LOGGED.fetch_add(1, Ordering::Relaxed);
    if let (Some(a), Some(s)) = (ADDRS.get(seq), SIZES.get(seq)) {
        a.store(addr as usize, Ordering::Relaxed);
        s.store(size, Ordering::Relaxed);
    }
}

fn made(ptr: *mut u8, size: usize) {
    COUNTS.with(|c| {
        let n = c.get();
        c.set(Counts {
            allocations: n.allocations + 1,
            largest: n.largest.max(size),
            ..n
        });
    });
    log(ptr, size);
}

fn freed(ptr: *mut u8) {
    COUNTS.with(|c| {
        let n = c.get();
        c.set(Counts {
            frees: n.frees + 1,
            ..n
        });
    });
    log(ptr, FREED);
}

/// The allocator [`install!`] installs.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counting
// and the log touch thread-local `Cell`s and static atomics only, and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, passed through.
        let ptr = unsafe { System.alloc(layout) };
        made(ptr, layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(ptr);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as an allocation, not a free; logged as both.
        log(ptr, FREED);
        // SAFETY: the caller's contract, passed through.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        made(new, new_size);
        new
    }
}
