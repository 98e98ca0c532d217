//! A cache hit does no per-row work: served through `MaterialsApi`, a
//! hit on a 400-row entry makes exactly as many heap allocations as a
//! hit on a 1-row entry, and a request with an API key no more than an
//! anonymous one. Its own test binary, because it installs a
//! counting `#[global_allocator]`.

use mp_docstore::Database;
use mp_mapi::auth::sign;
use mp_mapi::{ApiRequest, AuthRegistry, MaterialsApi, Provider, ProviderAssertion, QueryEngine};
use serde_json::json;

mp_testalloc::install!();

/// Fewest allocations any of eight consecutive hits of `path` makes,
/// sent with `key` or anonymously (the minimum skips the hit on which
/// the web log's ring doubles, and a key's first request, which makes
/// its rate-limit bucket).
fn allocations_per_hit(
    api: &MaterialsApi,
    path: &str,
    key: Option<&str>,
    clock: &mut f64,
    rows: usize,
) -> u64 {
    (0..8)
        .map(|_| {
            *clock += 10.0;
            let req = ApiRequest::get(path).at(*clock);
            let req = match key {
                Some(key) => req.with_key(key),
                None => req,
            };
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
    let auth = AuthRegistry::new();
    let email = "reader@example.com";
    let account = auth
        .register(&ProviderAssertion {
            provider: Provider::Google,
            email: email.into(),
            signature: sign(email),
        })
        .unwrap();
    let api = MaterialsApi::new(QueryEngine::new(db), auth);

    let mut clock = 0.0;
    for path in ["/rest/v1/materials/Fe-O", "/rest/v1/materials/Li-X"] {
        // The miss stores the entry, the first hit builds its array.
        for expected in ["MISS", "HIT"] {
            clock += 10.0;
            let resp = api.handle(&ApiRequest::get(path).at(clock));
            assert_eq!(resp.header("X-Cache"), Some(expected));
        }
    }
    let many = allocations_per_hit(&api, "/rest/v1/materials/Fe-O", None, &mut clock, 400);
    let one = allocations_per_hit(&api, "/rest/v1/materials/Li-X", None, &mut clock, 1);
    assert_eq!(
        many, one,
        "a hit's allocations must not scale with its rows"
    );
    let key = Some(account.api_key.as_str());
    let keyed = allocations_per_hit(&api, "/rest/v1/materials/Li-X", key, &mut clock, 1);
    // 17 while every string value was its own `String`: three short
    // string values a hit builds now live inside their `Value`s (14),
    // bumping a counter no longer allocates its name once it exists
    // (13), and admitting a request copies neither its account nor its
    // bucket's name (11). "At most" so that a further saving is not a
    // failure.
    assert!(one <= 11, "{one} allocations for one hit");
    assert!(keyed <= 11, "{keyed} allocations for one hit with a key");
}
