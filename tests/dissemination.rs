//! Dissemination-layer integration: the Materials API, QueryEngine
//! sanitization, rate limiting, sandbox publish flow, and the Fig.-5
//! telemetry, against a live populated deployment.

use materials_project::mapi::{auth, ApiRequest, Provider, ProviderAssertion, Sandbox};
use materials_project::matsci::Element;
use materials_project::MaterialsProject;
use serde_json::json;

fn deployment() -> MaterialsProject {
    let mut mp = MaterialsProject::new().unwrap();
    let recs = mp.ingest_icsd(30, 17).unwrap();
    mp.submit_calculations(&recs).unwrap();
    mp.run_campaign(15).unwrap();
    mp.build_views(Element::from_symbol("Li").unwrap()).unwrap();
    mp
}

#[test]
fn api_serves_every_material_by_three_identifier_kinds() {
    let mp = deployment();
    let api = mp.materials_api();
    let mats = mp
        .database()
        .collection("materials")
        .find(&json!({}))
        .unwrap();
    assert!(!mats.is_empty());
    for (i, m) in mats.iter().enumerate() {
        let t = i as f64 * 5.0;
        let by_id = api.handle(
            &ApiRequest::get(&format!(
                "/rest/v1/materials/{}",
                m["_id"].as_str().unwrap()
            ))
            .at(t),
        );
        assert_eq!(by_id.status, 200, "by id: {:?}", by_id.body());
        let by_formula = api.handle(
            &ApiRequest::get(&format!(
                "/rest/v1/materials/{}",
                m["formula"].as_str().unwrap()
            ))
            .at(t + 1.0),
        );
        assert_eq!(by_formula.status, 200);
        let by_sys = api.handle(
            &ApiRequest::get(&format!(
                "/rest/v1/materials/{}",
                m["chemsys"].as_str().unwrap()
            ))
            .at(t + 2.0),
        );
        assert_eq!(by_sys.status, 200);
    }
}

#[test]
fn sanitization_blocks_injection_everywhere() {
    let mp = deployment();
    let api = mp.materials_api();
    for evil in [
        json!({"$where": "sleep(10000)"}),
        json!({"x": {"$function": "x"}}),
        json!({"$or": [{"y": {"$where": "1"}}]}),
        json!({"a": {"$not": {"$where": "1"}}}),
    ] {
        let resp = api.structured_query(&ApiRequest::get("/q"), "materials", &evil, &[]);
        assert_eq!(resp.status, 400, "query {evil} must be rejected");
    }
}

#[test]
fn registered_users_get_separate_rate_buckets() {
    let mp = deployment();
    let api = mp.materials_api();
    let a = api
        .auth()
        .register(&ProviderAssertion {
            provider: Provider::Google,
            email: "a@x.org".into(),
            signature: auth::sign("a@x.org"),
        })
        .unwrap();
    let b = api
        .auth()
        .register(&ProviderAssertion {
            provider: Provider::Yahoo,
            email: "b@y.org".into(),
            signature: auth::sign("b@y.org"),
        })
        .unwrap();
    // Exhaust a's bucket at t=0.
    let mut a_throttled = false;
    for _ in 0..60 {
        if api
            .handle(&ApiRequest::get("/rest/v1/tasks/count").with_key(&a.api_key))
            .status
            == 429
        {
            a_throttled = true;
            break;
        }
    }
    assert!(a_throttled);
    // b is unaffected.
    let r = api.handle(&ApiRequest::get("/rest/v1/tasks/count").with_key(&b.api_key));
    assert_eq!(r.status, 200);
}

#[test]
fn sandbox_lifecycle_and_isolation() {
    let mp = deployment();
    let db = mp.database();
    let sb = Sandbox::new(db);
    let id_a = sb
        .upload("alice@x", json!({"formula": "LiNi0.5Mn1.5O4"}))
        .unwrap();
    let id_b = sb
        .upload("bob@y", json!({"formula": "Na3V2(PO4)3"}))
        .unwrap();

    // Isolation between users.
    assert_eq!(sb.visible_to(Some("alice@x")).unwrap().len(), 1);
    assert_eq!(sb.visible_to(Some("bob@y")).unwrap().len(), 1);
    // Cross-user sharing.
    assert!(sb.share("alice@x", &id_a, "bob@y").unwrap());
    assert_eq!(sb.visible_to(Some("bob@y")).unwrap().len(), 2);
    // Publication reaches everyone, including anonymous.
    assert!(sb.publish("bob@y", &id_b).unwrap());
    let public = sb.visible_to(None).unwrap();
    assert_eq!(public.len(), 1);
    assert_eq!(public[0]["formula"], "Na3V2(PO4)3");
}

#[test]
fn weblog_histogram_has_paper_shape() {
    let mp = deployment();
    let api = mp.materials_api();
    let mats = mp
        .database()
        .collection("materials")
        .find(&json!({}))
        .unwrap();
    for i in 0..400usize {
        let f = mats[i % mats.len()]["formula"].as_str().unwrap();
        api.handle(&ApiRequest::get(&format!("/rest/v1/materials/{f}")).at(i as f64 * 3.0));
    }
    let log = api.weblog();
    let p50 = log.percentile_ms(50.0).unwrap();
    assert!(
        (100.0..600.0).contains(&p50),
        "median should be a few hundred ms, got {p50}"
    );
    let hist = log.histogram_ms(&[100.0, 250.0, 500.0, 1000.0, 2000.0]);
    let total: usize = hist.iter().map(|(_, n)| n).sum();
    let tail: usize = hist[3..].iter().map(|(_, n)| n).sum();
    assert!(tail * 10 < total, "outliers must be few: {hist:?}");
}

#[test]
fn vnv_detects_injected_corruption() {
    let mp = deployment();
    // Corrupt one material the way a calculation bug would.
    mp.database()
        .collection("materials")
        .update_one(
            &json!({}),
            &json!({"$set": {"output.energy_per_atom": 12.5}}),
        )
        .unwrap();
    let violations = mp.run_vnv().unwrap();
    assert!(!materials_project::mapi::vnv_clean(&violations));
    let bad = violations
        .iter()
        .find(|(name, _)| name == "energy_in_physical_range")
        .unwrap();
    assert_eq!(bad.1.len(), 1);
}
