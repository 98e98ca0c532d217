//! A bulk load leaves no hole in the heap (DESIGN §10, "The heap a load
//! leaves"): what `insert_many` returns is allocated in one run, not
//! between the things the store keeps.
//!
//! The ids a load returns are dropped by the caller, all at once. An id
//! short enough to live inside its `Value` costs no chunk at all; a
//! longer one, cloned one per document between that document's `by_id`
//! key, index entries and `Arc<Document>`, would be a freed chunk with a
//! live neighbour on either side: it can never coalesce, and the store
//! would carry one small hole per document for as long as it lives. So
//! the property is checked on a load of each. Which allocator is
//! underneath does not matter to the property, so it is stated on
//! allocation *order*: every allocation gets a sequence number, and the
//! ones freed after the load returned must form one run that nothing the
//! store kept interrupts. And what the load makes and frees on its own
//! — a bulk build's entry vectors, which borrow their keys, and the
//! scratch of the maps it builds — must leave a handful of holes
//! between the chunks the store keeps, not one per document. Its own
//! test binary, because it installs a recording `#[global_allocator]`
//! (`mp_testalloc`'s).

use mp_docstore::Database;
use mp_testalloc::{Event, LOG_CAPACITY};
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};

mp_testalloc::install!();

const DOCS: usize = 2_000;
/// Lengths of the `_id`s of the two loads below: one that a string
/// holds inline, one it keeps on the heap. No other string in a
/// document is that long.
const INLINE_ID: usize = 10;
const HEAP_ID: usize = serde_json::Str::INLINE + 8;

/// A document of the benchmark corpus' shape, with an `_id` of `id_len`
/// bytes.
fn material(i: usize, id_len: usize) -> Value {
    let elements = [["Fe", "O"], ["Li", "Co"], ["Na", "Cl"]][i % 3];
    json!({
        "_id": format!("mp-{i:0digits$}", digits = id_len - 3),
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

/// What a load of `DOCS` documents with `id_len`-byte ids did to the heap.
struct Load {
    /// Allocations made before `insert_many` returned and freed after
    /// it: the returned id vector and what it owns.
    freed_late: usize,
    /// Of those, how many have a chunk the store kept between them and
    /// the next in allocation order.
    interleaved: usize,
    /// Allocations of `id_len` bytes, up to the return.
    id_sized: usize,
    /// See [`holes_between_kept`].
    holes: usize,
    /// Allocations the load made that the store still holds once the
    /// returned ids are dropped.
    kept: usize,
}

/// Load `DOCS` documents with `id_len`-byte ids into a collection
/// indexed on `paths`.
fn load(id_len: usize, paths: &[&str]) -> Load {
    let db = Database::new();
    let materials = db.collection("materials");
    let docs: Vec<Value> = (0..DOCS).map(|i| material(i, id_len)).collect();
    assert!(docs
        .iter()
        .all(|d| d["_id"].as_str().unwrap().len() == id_len));

    // Sequence numbers count from the first call this load logs.
    let first = mp_testalloc::logged();
    mp_testalloc::record(true);
    for path in paths {
        materials.create_index(path, false).unwrap();
    }
    let started = mp_testalloc::logged() - first;
    let ids = materials.insert_many(docs).unwrap();
    let returned = mp_testalloc::logged() - first;
    drop(ids);
    mp_testalloc::record(false);

    let logged = mp_testalloc::logged();
    assert!(
        logged <= LOG_CAPACITY,
        "{logged} events: raise LOG_CAPACITY"
    );
    let log = &mp_testalloc::events()[first..];
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
    let holes = holes_between_kept(log, &live, &freed_inside);
    freed_late.sort_unstable();
    let kept: BTreeSet<usize> = live.into_values().collect();
    let interleaved = freed_late
        .windows(2)
        .filter(|pair| kept.range(pair[0]..pair[1]).next().is_some())
        .count();
    let id_sized = log[..returned]
        .iter()
        .filter(|e| matches!(e, Event::Alloc { size, .. } if *size == id_len))
        .count();
    Load {
        freed_late: freed_late.len(),
        interleaved,
        id_sized,
        holes,
        kept: kept.len(),
    }
}

/// One test, so that no two loads record at once: the allocation log is
/// shared by every recording thread.
#[test]
fn a_bulk_load_leaves_the_heap_as_it_should() {
    a_load_returns_its_ids_as_one_run_and_clones_each_once_for_the_store();
    key_maps_keep_a_few_allocations_whatever_their_keys();
}

fn a_load_returns_its_ids_as_one_run_and_clones_each_once_for_the_store() {
    // Ids held inline: the id vector is all the caller frees, and no
    // id is allocated anywhere.
    let inline = load(INLINE_ID, INDEXED);
    assert_eq!(inline.freed_late, 1);
    assert_eq!(inline.id_sized, 0);
    assert!(
        inline.holes <= BUILD_HOLES,
        "the load left {} holes between chunks the store kept",
        inline.holes
    );

    // Ids on the heap: the id vector and one string per document.
    let heap = load(HEAP_ID, INDEXED);
    assert_eq!(heap.freed_late, DOCS + 1);
    assert_eq!(
        heap.interleaved, 0,
        "{} of the ids returned have something the store kept between them and the next",
        heap.interleaved
    );
    // (Documents that arrive without `_id` are not held to this: each
    // slot is filled as `materialize` assigns its id, inside the commit
    // loop, and that rare path may interleave.)

    // The returned clone of each `_id`, and at most one more per
    // document.
    assert!(
        (DOCS..=2 * DOCS).contains(&heap.id_sized),
        "{} id-sized allocations for {DOCS} documents",
        heap.id_sized
    );

    // What the load itself made and freed: where it lies between two
    // chunks the store kept, it is a hole for the life of the store. The
    // build allocates no key it does not keep, so what it frees is a few
    // buffers — the entry vectors and the scratch of the maps it builds
    // — each at most one hole; a key cloned per document only to be
    // sorted would leave one per document (DESIGN §10).
    assert!(
        heap.holes <= BUILD_HOLES,
        "the load left {} holes between chunks the store kept",
        heap.holes
    );
}

/// The indexes `explore_scan` builds on its corpus.
const INDEXED: &[&str] = &["chemsys", "formula"];

/// The store keeps the `_id` map and each index as a sorted run of
/// their keys: four vectors each, however many keys (DESIGN §10, "Sorted
/// runs and a delta"), where a map with a key and an id set per key
/// would keep one or two chunks per distinct key and its nodes.
fn key_maps_keep_a_few_allocations_whatever_their_keys() {
    let bare = load(INLINE_ID, &[]);
    let indexed = load(INLINE_ID, INDEXED);
    // Unindexed, the store keeps one handle per document, the document
    // map's nodes (one per ≈ 11 documents) and a few chunks more: the
    // `_id` map keeps no chunk per document.
    assert!(
        bare.kept <= DOCS + DOCS / 8,
        "{} allocations kept for {DOCS} documents without indexes",
        bare.kept
    );
    // The two indexes (24 distinct keys between them), run by run.
    assert!(
        indexed.kept - bare.kept <= INDEXED.len() * KEPT_PER_INDEX,
        "{} allocations kept for {} indexes",
        indexed.kept - bare.kept,
        INDEXED.len()
    );
}

/// What an index adds to what a load keeps: its run's four vectors, its
/// path's segments and its share of the index list.
const KEPT_PER_INDEX: usize = 8;

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
