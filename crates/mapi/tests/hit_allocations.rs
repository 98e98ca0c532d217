//! A cache hit does no per-row work: served through `MaterialsApi`, a
//! hit on a 400-row entry makes exactly as many heap allocations as a
//! hit on a 1-row entry. Its own test binary, because it installs a
//! counting `#[global_allocator]`.

use mp_docstore::Database;
use mp_mapi::{ApiRequest, AuthRegistry, MaterialsApi, QueryEngine};
use serde_json::json;

mp_testalloc::install!();

/// Fewest allocations any of eight consecutive hits of `path` makes
/// (the minimum skips the hit on which the web log's ring doubles).
fn allocations_per_hit(api: &MaterialsApi, path: &str, clock: &mut f64, rows: usize) -> u64 {
    (0..8)
        .map(|_| {
            *clock += 10.0;
            let req = ApiRequest::get(path).at(*clock);
            let (resp, cost) = mp_testalloc::counted(|| api.handle(&req));
            let made = cost.allocations;
            assert_eq!(resp.header("X-Cache"), Some("HIT"));
            assert_eq!(resp.payload().as_array().map(Vec::len), Some(rows));
            made
        })
        .min()
        .expect("eight hits")
}

#[test]
fn a_hit_allocates_the_same_for_400_rows_as_for_one() {
    let db = Database::new();
    let mut docs: Vec<_> = (0..400)
        .map(|i| {
            json!({"_id": format!("mp-{i}"), "formula": "Fe2O3", "chemsys": "Fe-O",
                   "elements": ["Fe", "O"], "nsites": 10 + i,
                   "output": {"energy": -67.5, "band_gap": 2.0}})
        })
        .collect();
    docs.push(json!({"_id": "mp-li", "formula": "Li", "chemsys": "Li-X"}));
    db.collection("materials").insert_many(docs).unwrap();
    let api = MaterialsApi::new(QueryEngine::new(db), AuthRegistry::new());

    let mut clock = 0.0;
    for path in ["/rest/v1/materials/Fe-O", "/rest/v1/materials/Li-X"] {
        // The miss stores the entry, the first hit builds its array.
        for expected in ["MISS", "HIT"] {
            clock += 10.0;
            let resp = api.handle(&ApiRequest::get(path).at(clock));
            assert_eq!(resp.header("X-Cache"), Some(expected));
        }
    }
    let many = allocations_per_hit(&api, "/rest/v1/materials/Fe-O", &mut clock, 400);
    let one = allocations_per_hit(&api, "/rest/v1/materials/Li-X", &mut clock, 1);
    assert_eq!(
        many, one,
        "a hit's allocations must not scale with its rows"
    );
    // 17 while every string value was its own `String`: three short
    // string values a hit builds now live inside their `Value`s (14),
    // and bumping the `cache.hit` counter no longer allocates its name
    // once it exists (13). "At most" so that a further saving is not a
    // failure.
    assert!(one <= 13, "{one} allocations for one hit");
}
