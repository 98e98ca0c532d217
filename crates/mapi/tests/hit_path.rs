//! The cache-hit response path: the first hit of a query-cache entry
//! builds the response array once — projecting it out of the entry's
//! handles when the request projects — every later hit shares it, and a
//! response, or an entry, outlives a write unchanged.

use mp_docstore::Database;
use mp_mapi::{ApiRequest, ApiResponse, AuthRegistry, MaterialsApi, QueryEngine};
use serde_json::{json, Value};
use std::sync::Barrier;

/// `n` Fe-O materials, `mp-0` … `mp-(n-1)`.
fn api(n: usize) -> MaterialsApi {
    let db = Database::new();
    let docs = (0..n)
        .map(|i| {
            json!({"_id": format!("mp-{i}"), "formula": "Fe2O3", "chemsys": "Fe-O",
                   "nsites": 10 + i, "output": {"energy": -67.5, "band_gap": 2.0}})
        })
        .collect();
    db.collection("materials").insert_many(docs).unwrap();
    MaterialsApi::new(QueryEngine::new(db), AuthRegistry::new())
}

/// The `t`-th request of a test: ten simulated seconds apart, so the
/// anonymous token bucket is full again every time.
fn get(api: &MaterialsApi, path: &str, t: u32) -> ApiResponse {
    api.handle(&ApiRequest::get(path).at(f64::from(t) * 10.0))
}

fn address(resp: &ApiResponse) -> *const Value {
    resp.payload()
}

#[test]
fn hits_share_one_array_equal_to_the_miss() {
    let api = api(40);
    let miss = get(&api, "/rest/v1/materials/Fe-O", 0);
    let hit1 = get(&api, "/rest/v1/materials/Fe-O", 1);
    let hit2 = get(&api, "/rest/v1/materials/Fe-O", 2);
    assert_eq!(miss.header("X-Cache"), Some("MISS"));
    assert_eq!(hit1.header("X-Cache"), Some("HIT"));
    assert_eq!(hit2.header("X-Cache"), Some("HIT"));
    assert_eq!(miss.payload().as_array().unwrap().len(), 40);
    assert_eq!(hit1.payload(), miss.payload());
    assert_eq!(address(&hit1), address(&hit2), "hits share the array");
    assert_ne!(address(&miss), address(&hit1), "a miss owns its rows");
    // Whoever owns the rows, the body is the same envelope.
    assert_eq!(hit1.body(), miss.body());
    assert_eq!(hit1.body()["response"], *miss.payload());
    // Each route that returns rows answers the same way.
    let query = |t| {
        api.structured_query(
            &ApiRequest::get("/query").at(f64::from(t) * 10.0),
            "materials",
            &json!({"nsites": {"$lt": 15}}),
            &["formula"],
        )
    };
    let (miss, hit1, hit2) = (query(3), query(4), query(5));
    assert_eq!(miss.header("X-Cache"), Some("MISS"));
    assert_eq!(miss.payload().as_array().unwrap().len(), 5);
    assert_eq!(hit1.payload(), miss.payload());
    assert_eq!(address(&hit1), address(&hit2));
    assert_eq!(hit1.body(), miss.body(), "warnings included");
    assert!(miss.body()["warnings"].is_array());
}

#[test]
fn a_write_makes_the_next_request_a_miss_and_leaves_held_responses_alone() {
    let api = api(3);
    let _miss = get(&api, "/rest/v1/materials/Fe-O", 0);
    let held = get(&api, "/rest/v1/materials/Fe-O", 1);
    assert_eq!(held.header("X-Cache"), Some("HIT"));
    let before = held.payload().clone();
    api.query_engine()
        .database()
        .collection("materials")
        .insert_one(json!({"_id": "mp-new", "formula": "FeO", "chemsys": "Fe-O"}))
        .unwrap();
    let fresh = get(&api, "/rest/v1/materials/Fe-O", 2);
    assert_eq!(fresh.header("X-Cache"), Some("MISS"));
    assert_eq!(fresh.payload().as_array().unwrap().len(), 4);
    // The entry `held` was served from is gone; its rows are not.
    assert_eq!(*held.payload(), before);
    assert_eq!(held.payload().as_array().unwrap().len(), 3);
    let again = get(&api, "/rest/v1/materials/Fe-O", 3);
    assert_eq!(again.header("X-Cache"), Some("HIT"));
    assert_eq!(again.payload(), fresh.payload());
    assert_ne!(address(&again), address(&held));
}

/// A projected entry holds handles and the projection, not rows: its
/// first hit projects the array out of them, equal to what the miss's
/// scan pass built, and later hits share it.
#[test]
fn a_projected_entry_projects_once_on_its_first_hit() {
    let api = api(12);
    let path = "/rest/v1/materials/Fe-O/vasp/energy";
    let (miss, hit1, hit2) = (get(&api, path, 0), get(&api, path, 1), get(&api, path, 2));
    assert_eq!(miss.header("X-Cache"), Some("MISS"));
    assert_eq!(hit1.header("X-Cache"), Some("HIT"));
    assert_eq!(hit2.header("X-Cache"), Some("HIT"));
    let rows = miss.payload().as_array().unwrap();
    assert_eq!(rows.len(), 12);
    assert_eq!(rows[3], json!({"_id": "mp-3", "output": {"energy": -67.5}}));
    assert_eq!(hit1.payload(), miss.payload());
    assert_eq!(address(&hit1), address(&hit2), "hits share the array");
    assert_ne!(address(&miss), address(&hit1), "a miss owns its rows");
    assert_eq!(hit1.body(), miss.body());
}

/// Handles are immutable: an entry held across a write still renders
/// the snapshot its miss scanned, while the next request misses and
/// sees the new value.
#[test]
fn an_entry_held_across_a_write_renders_the_snapshot_it_scanned() {
    let api = api(3);
    let qe = api.query_engine();
    let criteria = json!({"chemsys": "Fe-O"});
    let held = qe
        .query_cached("materials", &criteria, &["energy"], None)
        .unwrap();
    let scanned = Value::Array(held.rows.expect("a projected miss built its rows"));
    assert_eq!(
        scanned[1],
        json!({"_id": "mp-1", "output": {"energy": -67.5}})
    );
    qe.database()
        .collection("materials")
        .update_one(
            &json!({"_id": "mp-1"}),
            &json!({"$set": {"output.energy": -70.0}}),
        )
        .unwrap();
    // Rendered only now, after the write — from the documents it matched.
    assert_eq!(held.entry.to_json(), scanned);
    assert_eq!(*held.entry.shared_json(), scanned);
    let next = qe
        .query_cached("materials", &criteria, &["energy"], None)
        .unwrap();
    assert!(!next.cached, "the write invalidated the entry");
    let rows = next.rows.expect("a miss again");
    assert_eq!(rows[1], json!({"_id": "mp-1", "output": {"energy": -70.0}}));
    assert_eq!((&rows[0], &rows[2]), (&scanned[0], &scanned[2]));
}

/// Threads first-hitting one cold entry at once: whoever wins the cell
/// builds the array, the rest wait for it, and all of them answer with
/// that one array. `path_of` names the round's request.
fn first_hits_race_to_one_array(path_of: impl Fn(u32) -> String) {
    const THREADS: usize = 4;
    let rounds: u32 = if cfg!(tsan) { 8 } else { 32 };
    let api = api(rounds as usize);
    for round in 0..rounds {
        let path = path_of(round);
        // Ten simulated seconds per round refill the five tokens it takes.
        let miss = get(&api, &path, round);
        assert_eq!(miss.header("X-Cache"), Some("MISS"));
        let barrier = Barrier::new(THREADS);
        let hits: Vec<ApiResponse> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        get(&api, &path, round)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for hit in &hits {
            assert_eq!(hit.header("X-Cache"), Some("HIT"));
            assert_eq!(address(hit), address(&hits[0]), "one materialization");
            assert_eq!(hit.payload(), miss.payload());
        }
    }
}

/// Both run under ThreadSanitizer in CI: the winner of an unprojected
/// entry's cell copies documents, of a projected one's projects them.
#[test]
fn concurrent_first_hits_share_one_array() {
    first_hits_race_to_one_array(|round| format!("/rest/v1/materials/mp-{round}"));
}

#[test]
fn concurrent_first_hits_of_a_projected_entry_share_one_array() {
    first_hits_race_to_one_array(|round| format!("/rest/v1/materials/mp-{round}/vasp/energy"));
}
