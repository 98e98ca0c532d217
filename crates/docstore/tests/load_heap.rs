//! A bulk load leaves no hole in the heap (DESIGN §10, "The heap a load
//! leaves"): what `insert_many` returns is allocated in one run, not
//! between the things the store keeps.
//!
//! The ids a load returns are dropped by the caller, all at once. Cloned
//! one per document between that document's `by_id` key, index entries
//! and `Arc<Document>`, each freed id is a chunk with a live neighbour on
//! either side: it can never coalesce, and the store carries one small
//! hole per document for as long as it lives. Which allocator is
//! underneath does not matter to the property, so it is stated on
//! allocation *order*: every allocation gets a sequence number, and the
//! ones freed after the load returned must form one run that nothing the
//! store kept interrupts. And what the load makes and frees on its own
//! — a bulk build's entry vectors, which borrow their keys, and the
//! scratch of the maps it builds — must leave a handful of holes
//! between the chunks the store keeps, not one per document. Its own
//! test binary, because it installs a recording `#[global_allocator]`.

use mp_docstore::Database;
use serde_json::{json, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One allocator call of the recording thread; its index in the log is
/// its sequence number.
#[derive(Clone, Copy)]
enum Event {
    Alloc { addr: usize, size: usize },
    Free { addr: usize },
}

/// Room for every event of the recorded window (≈ 41,000): the
/// allocator must not allocate, so the log is static.
const LOG_CAPACITY: usize = 1 << 17;

/// The log: address and size per event, `FREED` for the size of a free.
/// Written by the recording thread alone; `LOGGED` counts the calls, and
/// runs past the capacity if the log overflows.
static ADDRS: [AtomicUsize; LOG_CAPACITY] = [const { AtomicUsize::new(0) }; LOG_CAPACITY];
static SIZES: [AtomicUsize; LOG_CAPACITY] = [const { AtomicUsize::new(0) }; LOG_CAPACITY];
static LOGGED: AtomicUsize = AtomicUsize::new(0);
const FREED: usize = usize::MAX;

thread_local! {
    /// Set on the one thread whose calls are recorded (const-initialized,
    /// no destructor: safe to touch from inside the allocator).
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

fn record(addr: usize, size: usize) {
    if !RECORDING.with(Cell::get) {
        return;
    }
    let seq = LOGGED.fetch_add(1, Ordering::Relaxed);
    if let (Some(a), Some(s)) = (ADDRS.get(seq), SIZES.get(seq)) {
        a.store(addr, Ordering::Relaxed);
        s.store(size, Ordering::Relaxed);
    }
}

/// The first `n` events recorded.
fn events(n: usize) -> Vec<Event> {
    (0..n)
        .map(|seq| {
            let addr = ADDRS[seq].load(Ordering::Relaxed);
            match SIZES[seq].load(Ordering::Relaxed) {
                FREED => Event::Free { addr },
                size => Event::Alloc { addr, size },
            }
        })
        .collect()
}

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`; recording
// stores into static atomics and never allocates.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, passed through.
        let ptr = unsafe { System.alloc(layout) };
        record(ptr as usize, layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(ptr as usize, FREED);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(ptr as usize, FREED);
        // SAFETY: the caller's contract, passed through.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        record(new as usize, new_size);
        new
    }
}

#[global_allocator]
static GLOBAL: Recording = Recording;

const DOCS: usize = 2_000;
/// Length of every `_id` below, and of no other string in a document.
const ID_LEN: usize = 10;

/// A document of the benchmark corpus' shape.
fn material(i: usize) -> Value {
    let elements = [["Fe", "O"], ["Li", "Co"], ["Na", "Cl"]][i % 3];
    json!({
        "_id": format!("mp-{i:07}"),
        "formula": format!("{}{}{}2", elements[0], 1 + i % 7, elements[1]),
        "chemsys": format!("{}-{}", elements[0], elements[1]),
        "elements": elements,
        "nelements": 2,
        "nsites": 4 + i % 40,
        "density": 2.5 + (i % 100) as f64 / 20.0,
        "output": {
            "energy": -20.0 - i as f64 / 8.0,
            "energy_per_atom": -5.0 - (i % 64) as f64 / 32.0,
            "band_gap": (i % 50) as f64 / 10.0,
        },
        "stability": {"e_above_hull": (i % 30) as f64 / 100.0},
    })
}

#[test]
fn a_load_returns_its_ids_as_one_run_and_clones_each_once_for_the_store() {
    let db = Database::new();
    let materials = db.collection("materials");
    let docs: Vec<Value> = (0..DOCS).map(material).collect();
    assert!(docs
        .iter()
        .all(|d| d["_id"].as_str().unwrap().len() == ID_LEN));

    RECORDING.with(|on| on.set(true));
    materials.create_index("chemsys", false).unwrap();
    materials.create_index("formula", false).unwrap();
    let started = LOGGED.load(Ordering::Relaxed);
    let ids = materials.insert_many(docs).unwrap();
    let returned = LOGGED.load(Ordering::Relaxed);
    drop(ids);
    RECORDING.with(|on| on.set(false));

    let logged = LOGGED.load(Ordering::Relaxed);
    assert!(
        logged <= LOG_CAPACITY,
        "{logged} events: raise LOG_CAPACITY"
    );
    let log = events(logged);
    assert_eq!(materials.len(), DOCS);

    // Replay: which allocations of the window are still live, which
    // were freed only after `insert_many` had returned, and which were
    // made and freed inside it.
    let mut live: BTreeMap<usize, usize> = BTreeMap::new(); // address → sequence number
    let mut freed_late: Vec<usize> = Vec::new();
    let mut freed_inside: Vec<usize> = Vec::new();
    for (seq, event) in log.iter().enumerate() {
        match *event {
            Event::Alloc { addr, .. } => {
                live.insert(addr, seq);
            }
            Event::Free { addr } => {
                // Memory from before the window has no sequence number.
                if let Some(made) = live.remove(&addr) {
                    if seq >= returned {
                        freed_late.push(made);
                    } else if made >= started {
                        freed_inside.push(made);
                    }
                }
            }
        }
    }
    let holes = holes_between_kept(&log, &live, &freed_inside);
    // The id vector and one string per document.
    assert_eq!(freed_late.len(), DOCS + 1);
    freed_late.sort_unstable();
    let kept: BTreeSet<usize> = live.into_values().collect();
    let interleaved = freed_late
        .windows(2)
        .filter(|pair| kept.range(pair[0]..pair[1]).next().is_some())
        .count();
    assert_eq!(
        interleaved, 0,
        "{interleaved} of the ids returned have something the store kept between them and the next"
    );
    // (Documents that arrive without `_id` are not held to this: each
    // slot is filled as `materialize` assigns its id, inside the commit
    // loop, and that rare path may interleave.)

    // One `_id` clone per document for the store (its `by_id` key) and
    // at most one more, the returned one.
    let id_sized = log[..returned]
        .iter()
        .filter(|e| matches!(e, Event::Alloc { size, .. } if *size == ID_LEN))
        .count();
    assert!(
        (DOCS..=2 * DOCS).contains(&id_sized),
        "{id_sized} id-sized allocations for {DOCS} documents"
    );

    // What the load itself made and freed: where it lies between two
    // chunks the store kept, it is a hole for the life of the store. The
    // build allocates no key it does not keep, so what it frees is a few
    // buffers — the entry vectors and the scratch of the maps it builds
    // — each at most one hole; a key cloned per document only to be
    // sorted would leave one per document (DESIGN §10).
    assert!(
        holes <= BUILD_HOLES,
        "the load left {holes} holes between chunks the store kept"
    );
}

/// Holes the bulk build leaves: the list of index specs it reads, one
/// index's run vector and the documents map's collect buffer.
const BUILD_HOLES: usize = 3;

/// Runs, in address order, of chunks made and freed inside the load
/// (`freed_inside`, by sequence number) that have a chunk the store
/// kept (`live`, address → sequence number) on either side. A freed
/// chunk whose memory a kept one reuses is no hole; adjacent freed
/// chunks coalesce, so a run of them counts once.
fn holes_between_kept(
    log: &[Event],
    live: &BTreeMap<usize, usize>,
    freed_inside: &[usize],
) -> usize {
    let span = |seq: usize| match log[seq] {
        Event::Alloc { addr, size } => (addr, addr + size),
        Event::Free { .. } => unreachable!("sequence numbers of allocations"),
    };
    let kept: BTreeMap<usize, usize> = live.values().map(|&seq| span(seq)).collect();
    // address → whether the store kept the chunk there
    let mut by_addr: BTreeMap<usize, bool> = kept.keys().map(|&addr| (addr, true)).collect();
    for &seq in freed_inside {
        let (start, end) = span(seq);
        let reused = kept
            .range(..end)
            .next_back()
            .is_some_and(|(_, &kept_end)| kept_end > start);
        if !reused {
            by_addr.entry(start).or_insert(false);
        }
    }
    let kinds: Vec<bool> = by_addr.into_values().collect();
    // Each maximal run of freed chunks, and the kept chunks around it.
    let mut holes = 0;
    let mut at = 0;
    while at < kinds.len() {
        if kinds[at] {
            at += 1;
            continue;
        }
        let end = at + kinds[at..].iter().take_while(|kept| !**kept).count();
        if at > 0 && end < kinds.len() {
            holes += 1;
        }
        at = end;
    }
    holes
}
