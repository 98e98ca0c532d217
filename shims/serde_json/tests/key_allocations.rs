//! A document's field names cost no allocation: building, copying and
//! parsing the 13-name document the benchmark corpus is made of
//! allocates for its strings, arrays and objects and for nothing else.
//! Its own test binary, because it installs a counting
//! `#[global_allocator]` (the one `unsafe` in the shims' tests, as in
//! `crates/mapi/tests/hit_allocations.rs`).

use serde_json::{json, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread (const-initialized, no
    /// destructor: safe to touch from inside the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls `f` makes, and what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// `crates/bench/src/bin/serve/corpus.rs`'s `Record::doc`: 13 field
/// names, three strings, an array of two strings, three objects.
fn corpus_doc(i: u32, elements: &[&str]) -> Value {
    json!({
        "_id": format!("mp-{i}"),
        "formula": "Fe2O3",
        "chemsys": "Fe-O",
        "elements": elements,
        "nelements": elements.len(),
        "nsites": 10 + i,
        "density": 5.25,
        "output": {
            "energy": -67.5,
            "energy_per_atom": -6.75,
            "band_gap": 2.0,
        },
        "stability": {"e_above_hull": 0.0},
    })
}

#[test]
fn field_names_are_not_allocated_per_document() {
    let elements = ["Fe", "O"];
    // The first document enters the 13 names in the process-wide
    // table (and the first parse sizes the parser's stack); every
    // later one finds them there.
    let text = corpus_doc(0, &elements).to_string();
    let _: Value = serde_json::from_str(&text).unwrap();

    for i in 1..4 {
        let (built, doc) = counted(|| corpus_doc(i, &elements));
        let (copied, copy) = counted(|| doc.clone());
        let text = doc.to_string();
        let (parsed, back) = counted(|| serde_json::from_str_value(&text).unwrap());
        assert_eq!(copy, doc);
        assert_eq!(back, doc);
        // With a `String` per key these were 23 / 22 / 24: the 13 keys
        // on top of the 3 objects, 1 array and 5 strings a copy makes,
        // plus the `format!` temporary for `json!` and, for the
        // parser, two reallocations growing the nine-field object
        // 4 → 8 → 16. What is left is the document — one allocation
        // per string, array and object, none for growing any of them.
        // The counts repeat exactly; "at most" so that a further
        // saving is not a failure.
        assert!(built <= 10, "json!: {built} allocations");
        assert!(copied <= 9, "clone: {copied} allocations");
        assert!(parsed <= 9, "parse: {parsed} allocations");
    }
}
