//! An update that leaves every indexed key alone allocates nothing in
//! the indexes.
//!
//! Re-indexing a document removes its entries and inserts them again:
//! each key cloned twice, and a key held by that document alone freed
//! with its id set and allocated anew. When the update changed no key
//! an index covers, the index is left as it is, so the update costs the
//! same allocations on a collection with two indexes as on its
//! unindexed twin. Its own test binary, because it installs a counting
//! `#[global_allocator]`.

use mp_docstore::{Collection, Database};
use serde_json::{json, Value};
use std::sync::Arc;

mp_testalloc::install!();

/// What `f` allocated.
fn counted(f: impl FnOnce()) -> u64 {
    mp_testalloc::counted(f).1.allocations
}

/// Materials whose `formula` is each one's own key and whose `elements`
/// are multikey, on `indexes`.
fn materials(db: &Database, indexes: &[&str]) -> Arc<Collection> {
    let materials = db.collection("materials");
    for path in indexes {
        materials.create_index(path, false).unwrap();
    }
    let docs: Vec<Value> = (0..50)
        .map(|i| {
            json!({"_id": format!("mp-{i}"), "formula": format!("Fe{i}O{}", i + 1),
                   "elements": ["Fe", "O"], "nsites": i, "e_above_hull": 0.0})
        })
        .collect();
    materials.insert_many(docs).unwrap();
    materials
}

/// What an `update_one` by `_id` allocates, after one like it.
fn refresh(materials: &Collection, set: Value, again: Value) -> u64 {
    let by_id = json!({"_id": "mp-7"});
    let update = |set: &Value| {
        materials
            .update_one(&by_id, &json!({ "$set": set }))
            .unwrap()
    };
    assert_eq!(update(&set).modified, 1);
    counted(|| assert_eq!(update(&again).modified, 1))
}

#[test]
fn an_update_of_an_unindexed_field_allocates_nothing_in_the_indexes() {
    let (indexed, plain) = (Database::new(), Database::new());
    let (indexed, plain) = (
        materials(&indexed, &["formula", "elements"]),
        materials(&plain, &[]),
    );
    let unindexed = |c: &Collection| {
        refresh(
            c,
            json!({"e_above_hull": 0.25}),
            json!({"e_above_hull": 0.5}),
        )
    };
    assert_eq!(unindexed(&indexed), unindexed(&plain));

    // Moving an indexed key does allocate: the check above can see it.
    let moved =
        |c: &Collection| refresh(c, json!({"formula": "Fe7O9"}), json!({"formula": "Fe7O10"}));
    assert!(moved(&indexed) > moved(&plain));
}
