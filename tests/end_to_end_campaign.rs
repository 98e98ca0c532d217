//! Full-stack integration: ICSD ingest → FireWorks submission → batch
//! simulation + DFT execution → offline loading → derived views → V&V →
//! Materials API, all against one shared datastore (Fig. 2).

use materials_project::*;
use mp_matsci::Element;
use serde_json::json;

#[test]
fn campaign_produces_queryable_database() {
    let mut mp = MaterialsProject::new().unwrap();
    let recs = mp.ingest_icsd(60, 42).unwrap();
    assert_eq!(recs.len(), 60);
    let submitted = mp.submit_calculations(&recs).unwrap();
    assert_eq!(submitted, 60);

    let report = mp.run_campaign(25).unwrap();
    assert!(report.rounds >= 1);
    assert!(
        report.completed >= 40,
        "most calculations should converge eventually: {report:?}"
    );
    // The failure machinery must actually have been exercised.
    assert!(
        report.walltime_reruns + report.detours + report.memory_reruns > 0,
        "expected some failures in 60 heterogeneous jobs: {report:?}"
    );
    // Duplicates from the generator are deduplicated, not recomputed.
    assert!(report.dedup_hits > 0, "ICSD stream contains duplicates");
    // Loading took real (simulated) time; store overhead is tiny
    // relative to compute — the paper's "negligible fraction" claim.
    assert!(report.load_s > 0.0);
    assert!(report.compute_s > 0.0);

    // No firework left behind: every engine entry is terminal.
    let lingering = mp
        .database()
        .collection("engines")
        .count(&json!({"state": {"$in": ["READY", "RUNNING", "WAITING"]}}))
        .unwrap();
    assert_eq!(lingering, 0, "campaign must drain the queue");

    // Derived views.
    let li = Element::from_symbol("Li").unwrap();
    let summary = mp.build_views(li).unwrap();
    let n_materials = summary["materials"].as_u64().unwrap();
    assert!(n_materials >= 30, "materials view too small: {summary}");
    assert!(summary["bandstructures"].as_u64().unwrap() >= 30);
    assert!(summary["xrd_patterns"].as_u64().unwrap() >= 30);

    // V&V must pass on a freshly built view.
    let violations = mp.run_vnv().unwrap();
    assert!(
        mp_mapi::vnv_clean(&violations),
        "V&V violations: {violations:?}"
    );

    // Materials API serves the data.
    let api = mp.materials_api();
    let some_formula = mp
        .database()
        .collection("materials")
        .find(&json!({}))
        .unwrap()[0]["formula"]
        .as_str()
        .unwrap()
        .to_string();
    let resp = api.handle(&mp_mapi::ApiRequest::get(&format!(
        "/rest/v1/materials/{some_formula}/vasp/energy"
    )));
    assert_eq!(resp.status, 200, "{:?}", resp.body());
    assert!(resp.payload()[0]["output"]["energy"].as_f64().unwrap() < 0.0);
}

#[test]
fn resubmission_is_idempotent_via_binders() {
    let mut mp = MaterialsProject::new().unwrap();
    let recs = mp.ingest_icsd(20, 7).unwrap();
    mp.submit_calculations(&recs).unwrap();
    let r1 = mp.run_campaign(20).unwrap();
    let tasks_after_first = mp.database().collection("tasks").len();
    assert!(r1.completed > 0);

    // Submit the *same* calculations again (different fw ids, same
    // binders) — §III-C3: "the FireWorks code allows workflows to be
    // idempotent and be submitted without regard to prior history".
    let resubs: Vec<mp_matsci::MpsRecord> = recs
        .iter()
        .map(|r| {
            let mut c = r.clone();
            c.mps_id = format!("{}-again", r.mps_id);
            c
        })
        .collect();
    mp.submit_calculations(&resubs).unwrap();
    let r2 = mp.run_campaign(20).unwrap();
    let tasks_after_second = mp.database().collection("tasks").len();

    // Only the handful that fizzled the first time (and thus never
    // registered a binder) may run again.
    let new_tasks = tasks_after_second - tasks_after_first;
    assert!(
        new_tasks <= r1.fizzled + 2,
        "resubmission recomputed {new_tasks} tasks (first-round fizzles: {})",
        r1.fizzled
    );
    assert!(r2.dedup_hits >= 15, "dedup hits {}", r2.dedup_hits);
}
