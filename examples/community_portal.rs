//! The community portal: registration, the Materials API, rate limits,
//! sandboxes, and the publish flow of Fig. 3.
//!
//! ```text
//! cargo run --example community_portal
//! ```

use materials_project::mapi::{
    ApiRequest, AuthRegistry, Provider, ProviderAssertion, QueryEngine, Sandbox, WebUi,
};
use materials_project::matsci::Element;
use materials_project::MaterialsProject;
use serde_json::json;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Stand up a populated deployment.
    let mut mp = MaterialsProject::new()?;
    let recs = mp.ingest_icsd(40, 7)?;
    mp.submit_calculations(&recs)?;
    mp.run_campaign(20)?;
    mp.build_views(Element::from_symbol("Li")?)?;
    let api = mp.materials_api();

    // --- registration via a trusted third party (§IV-D1) ---
    let alice = api.auth().register(&ProviderAssertion {
        provider: Provider::Google,
        email: "alice@university.edu".into(),
        signature: materials_project::mapi::auth::sign("alice@university.edu"),
    })?;
    println!("alice registered; api key {}", alice.api_key);

    // --- browsing the data over the REST API ---
    let mats = mp.database().collection("materials").find(&json!({}))?;
    let formula = mats[0]["formula"].as_str().unwrap();
    for uri in [
        format!("/rest/v1/materials/{formula}"),
        format!("/rest/v1/materials/{formula}/vasp/energy"),
        format!("/rest/v1/materials/{formula}/vasp/band_gap"),
        "/rest/v1/tasks/count".to_string(),
    ] {
        let resp = api.handle(&ApiRequest::get(&uri).with_key(&alice.api_key).at(1.0));
        println!("GET {uri} -> {}", resp.status);
    }

    // --- the structured query pymatgen's MPRester would send ---
    let resp = api.structured_query(
        &ApiRequest::get("/query").with_key(&alice.api_key).at(2.0),
        "materials",
        &json!({"nelements": {"$lte": 2}, "band_gap": {"$gt": 0.5}}),
        &["formula", "band_gap"],
    );
    println!(
        "\nbinary compounds with a gap > 0.5 eV: {}",
        resp.payload().as_array().map(Vec::len).unwrap_or(0)
    );

    // --- a malicious query is stopped at the QueryEngine ---
    let evil = api.structured_query(
        &ApiRequest::get("/query").with_key(&alice.api_key).at(3.0),
        "materials",
        &json!({"$where": "while(1){}"}),
        &[],
    );
    println!(
        "injection attempt -> {} ({})",
        evil.status,
        evil.body()["error"]
    );

    // --- a scraper hits the rate limiter ---
    let mut served = 0;
    let mut throttled = 0;
    for i in 0..200 {
        let r = api.handle(
            &ApiRequest::get(&format!("/rest/v1/materials/{formula}"))
                .with_key(&alice.api_key)
                .at(4.0 + i as f64 * 0.01),
        );
        if r.status == 429 {
            throttled += 1;
        } else {
            served += 1;
        }
    }
    println!("scrape burst: {served} served, {throttled} throttled");

    // --- sandboxes and the publish flow (Fig. 3 d→f) ---
    let db = mp.database();
    let sandbox = Sandbox::new(db);
    let rec_id = sandbox.upload(
        "alice@university.edu",
        json!({"formula": "Li3FeO3", "note": "unpublished candidate"}),
    )?;
    sandbox.share("alice@university.edu", &rec_id, "bob@lab.gov")?;
    println!("\nsandbox: alice uploaded a private record and shared it with bob");
    println!(
        "  visible to anonymous: {}",
        sandbox.visible_to(None)?.len()
    );
    println!(
        "  visible to bob:       {}",
        sandbox.visible_to(Some("bob@lab.gov"))?.len()
    );
    sandbox.publish("alice@university.edu", &rec_id)?;
    println!("after publication:");
    println!(
        "  visible to anonymous: {}",
        sandbox.visible_to(None)?.len()
    );

    // --- the QueryEngine alias layer in action ---
    let qe = QueryEngine::new(db.clone());
    let stable = qe.count("materials", &json!({"e_above_hull": {"$lte": 0.0}}))?;
    println!("\nstable materials (via the 'e_above_hull' alias): {stable}");

    // --- the HTML5 portal (§III-D1): search page, material detail with
    // inline band-structure and XRD SVGs, and an aggregation-backed
    // statistics dashboard ---
    let ui = WebUi::new(&qe);
    let search_html = ui.search_page(&json!({"elements": "O"}), 10)?;
    let some_id = mats[0]["_id"].as_str().unwrap();
    let detail_html = ui.material_page(some_id)?.unwrap();
    let stats_html = ui.stats_page()?;
    println!("\nportal pages rendered:");
    println!("  search page   {} bytes", search_html.len());
    println!(
        "  detail page   {} bytes (band SVG: {}, XRD SVG: {})",
        detail_html.len(),
        detail_html.contains("class=\"bands\""),
        detail_html.contains("class=\"xrd\"")
    );
    println!("  stats page    {} bytes", stats_html.len());

    // --- portal telemetry: the Fig.-5 histogram over this session ---
    println!("\nquery-latency histogram (this session):");
    for (bucket, n) in api
        .weblog()
        .histogram_ms(&[100.0, 250.0, 500.0, 1000.0, 2000.0])
    {
        println!("  {bucket:>12}  {}", "#".repeat(n.min(60)));
    }
    let _ = AuthRegistry::new(); // (exported type exercised)
    Ok(())
}
