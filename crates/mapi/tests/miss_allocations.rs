//! What a projected miss allocates, and what evicting its entry frees.
//!
//! A projected `structured_query` miss builds each row once — in the
//! scan pass that matched it — and moves those rows into the response:
//! no `Arc` per row, no second set for the cache entry. The entry keeps
//! handles to the stored documents and the projection, so pushing it out
//! of the cache drops reference counts; it frees nothing per row inside
//! whichever request happens to evict it. Its own test binary, because
//! it installs a counting `#[global_allocator]`.

use mp_docstore::{CompiledProjection, Database, Docs};
use mp_mapi::{ApiRequest, ApiResponse, AuthRegistry, MaterialsApi, QueryEngine};
use serde_json::{json, Value};
use std::sync::Arc;

mp_testalloc::install!();

/// What `f` allocated and freed, and what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (out, cost) = mp_testalloc::counted(f);
    (out, cost.allocations, cost.frees)
}

const MANY: usize = 400;
const PROPS: [&str; 2] = ["formula", "energy"];

/// 400 `Fe2O3` materials and one `LiF`, unindexed on `formula`: both
/// queries below scan the same 401 candidates and differ in how many
/// match.
fn database() -> Database {
    let db = Database::new();
    let mut docs: Vec<Value> = (0..MANY)
        .map(|i| {
            json!({"_id": format!("mp-{i}"), "formula": "Fe2O3", "chemsys": "Fe-O",
                   "elements": ["Fe", "O"], "nsites": 10 + i,
                   "output": {"energy": -67.5, "band_gap": 2.0}})
        })
        .collect();
    docs.push(json!({"_id": "mp-li", "formula": "LiF", "chemsys": "F-Li",
                     "elements": ["Li", "F"], "nsites": 2,
                     "output": {"energy": -9.7, "band_gap": 8.9}}));
    let materials = db.collection("materials");
    materials.insert_many(docs).unwrap();
    // The first scan of a generation builds its segment; do that here.
    assert_eq!(materials.count(&json!({"formula": "none"})).unwrap(), 0);
    db
}

fn api(db: &Database) -> MaterialsApi {
    MaterialsApi::new(QueryEngine::new(db.clone()), AuthRegistry::new())
}

/// The projected miss for every material of `formula`, counted.
fn miss(api: &MaterialsApi, formula: &str, rows: usize) -> (ApiResponse, u64) {
    let criteria = json!({ "formula": formula });
    let req = ApiRequest::get("/query");
    let (resp, allocations, _) =
        counted(|| api.structured_query(&req, "materials", &criteria, &PROPS));
    assert_eq!(resp.header("X-Cache"), Some("MISS"));
    assert_eq!(resp.payload().as_array().map(Vec::len), Some(rows));
    (resp, allocations)
}

/// What pushing `n` matches through a sink that makes (handle, row)
/// pairs costs in vector growth alone.
fn pair_vector_growth(n: usize) -> u64 {
    let doc = Arc::new(Value::Null);
    let (_, allocations, _) = counted(|| {
        (0..n)
            .filter(|i| std::hint::black_box(*i) < n)
            .map(|_| (Arc::clone(&doc), Value::Null))
            .collect::<(Docs, Vec<Value>)>()
    });
    allocations
}

#[test]
fn a_projected_miss_builds_each_row_once_and_its_eviction_frees_none() {
    let db = database();
    // One row's worth: a map and a nested map. (Its two strings,
    // `mp-7` and `Fe2O3`, live inside their values.)
    let proj = CompiledProjection::compile(&["formula", "output.energy"]);
    let stored = db.collection("materials").find_one(&json!({"_id": "mp-7"}));
    let stored = stored.unwrap().expect("mp-7 is stored");
    let (row, per_row, _) = counted(|| proj.project_one(&stored));
    assert_eq!(
        row,
        json!({"_id": "mp-7", "formula": "Fe2O3", "output": {"energy": -67.5}})
    );
    assert_eq!(per_row, 2);

    // The miss: n rows cost n projections and the growth of the two
    // vectors they are pushed into — nothing else scales with n. (A
    // throwaway one first: the process enters each envelope field name
    // into the shared key table once.)
    miss(&api(&db), "LiF", 1);
    let (many_api, one_api) = (api(&db), api(&db));
    let (many, many_allocations) = miss(&many_api, "Fe2O3", MANY);
    let (one, one_allocations) = miss(&one_api, "LiF", 1);
    assert_eq!(many.payload()[7], row);
    assert_eq!(
        many_allocations - one_allocations,
        (MANY as u64 - 1) * per_row + pair_vector_growth(MANY) - pair_vector_growth(1),
        "{many_allocations} allocations for {MANY} rows, {one_allocations} for one"
    );

    // The response owns those rows: dropping it frees them.
    let ((), _, many_freed) = counted(|| drop(many));
    let ((), _, one_freed) = counted(|| drop(one));
    assert_eq!(many_freed - one_freed, (MANY as u64 - 1) * per_row);

    // The entry does not: 256 further distinct requests push it out of
    // the cache, and that costs the same whether it held 400 rows or one.
    let evict = |api: &MaterialsApi| {
        let ((), _, freed) = counted(|| {
            for i in 0..256u32 {
                let path = format!("/rest/v1/materials/mp-{i}");
                let resp = api.handle(&ApiRequest::get(&path).at(f64::from(i + 1) * 10.0));
                assert_eq!(resp.header("X-Cache"), Some("MISS"));
            }
        });
        assert_eq!(api.query_engine().cache_stats().evictions, 1);
        freed
    };
    assert_eq!(evict(&many_api), evict(&one_api));
}
