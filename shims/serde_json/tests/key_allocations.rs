//! A document's field names and short strings cost no allocation:
//! building, copying and parsing the 13-name document the benchmark
//! corpus is made of allocates for its arrays and objects and for
//! nothing else. Its own test binary, because it installs a counting
//! `#[global_allocator]`.

use serde_json::{json, Value};

mp_testalloc::install!();

/// Allocator calls `f` makes, and what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let (out, cost) = mp_testalloc::counted(f);
    (cost.allocations, out)
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
        // 4 → 8 → 16. With a `String` per string value they were
        // 10 / 9 / 9. What is left is the document's containers — one
        // allocation per array and object, none for growing any of
        // them — and `json!`'s `format!` temporary. The counts repeat
        // exactly; "at most" so that a further saving is not a failure.
        assert!(built <= 5, "json!: {built} allocations");
        assert!(copied <= 4, "clone: {copied} allocations");
        assert!(parsed <= 4, "parse: {parsed} allocations");
    }
}

#[test]
fn a_string_longer_than_the_inline_bound_is_one_allocation() {
    let short = json!({"s": "x".repeat(serde_json::Str::INLINE)});
    let long = json!({"s": "x".repeat(serde_json::Str::INLINE + 1)});
    for (doc, strings) in [(short, 0), (long, 1)] {
        let text = doc.to_string();
        // The first parse may size the parser's stack.
        serde_json::from_str_value(&text).unwrap();
        let (copied, _) = counted(|| doc.clone());
        let (parsed, _) = counted(|| serde_json::from_str_value(&text).unwrap());
        // The object, and the text if it did not fit inline.
        assert_eq!((copied, parsed), (1 + strings, 1 + strings), "{text}");
    }
}
