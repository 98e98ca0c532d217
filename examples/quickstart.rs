//! Quickstart: the whole Materials Project loop in one small run.
//!
//! Ingest a handful of synthetic-ICSD crystals, run them through the
//! FireWorks → batch-queue → DFT → offline-loading pipeline, build the
//! derived views, and query the result through the Materials API —
//! including the paper's Fig.-4 URI.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use materials_project::mapi::ApiRequest;
use materials_project::matsci::Element;
use materials_project::{assemble, render_input_files, MaterialsProject};
use serde_json::json;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mp = MaterialsProject::new()?;

    // (a)→(b): candidate materials arrive as MPS records.
    let recs = mp.ingest_icsd(25, 2012)?;
    println!(
        "ingested {} MPS records, e.g. {}",
        recs.len(),
        recs[0].structure.formula()
    );

    // Show what the Assembler turns a Stage into on the compute node.
    let spec = materials_project::make_spec(
        &recs[0],
        &materials_project::mp_dft::Incar::default(),
        3600.0,
    );
    let job = assemble(&spec)?;
    println!(
        "\n--- assembled input files for {} ---",
        job.structure.formula()
    );
    for (name, content) in render_input_files(&job) {
        println!("[{name}]");
        for line in content.lines().take(4) {
            println!("  {line}");
        }
    }

    // (c): submit for computation and run the campaign.
    mp.submit_calculations(&recs)?;
    let report = mp.run_campaign(20)?;
    println!("\n--- campaign ---");
    println!("rounds            {}", report.rounds);
    println!("batch jobs        {}", report.batch_jobs);
    println!("completed tasks   {}", report.completed);
    println!("walltime re-runs  {}", report.walltime_reruns);
    println!("error detours     {}", report.detours);
    println!("duplicate hits    {}", report.dedup_hits);
    println!("fizzled (human)   {}", report.fizzled);
    println!("compute node-sec  {:.0}", report.compute_s);
    println!("data loading sec  {:.1}", report.load_s);
    println!(
        "store overhead    {:.3} s  (the 'negligible fraction')",
        report.store_overhead_us as f64 / 1e6
    );

    // (e): analytics — materials view, stability, batteries, spectra.
    let li = Element::from_symbol("Li")?;
    let summary = mp.build_views(li)?;
    println!(
        "\n--- derived collections ---\n{}",
        serde_json::to_string_pretty(&summary)?
    );

    // V&V before "release".
    let violations = mp.run_vnv()?;
    println!(
        "\nV&V clean: {}",
        materials_project::mapi::vnv_clean(&violations)
    );

    // (f): dissemination through the Materials API.
    let api = mp.materials_api();
    let a_formula = mp.database().collection("materials").find(&json!({}))?[0]["formula"]
        .as_str()
        .unwrap()
        .to_string();
    let uri = format!("/rest/v1/materials/{a_formula}/vasp/energy");
    let resp = api.handle(&ApiRequest::get(&uri));
    println!("\nGET {uri}\n  status {}\n  {}", resp.status, resp.body());

    Ok(())
}
