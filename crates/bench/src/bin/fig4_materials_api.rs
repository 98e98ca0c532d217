//! Figure 4 — the Materials API URI anatomy, exercised end-to-end:
//!
//! ```text
//! https://www.materialsproject.org/rest/v1/materials/Fe2O3/vasp/energy
//!         preamble               version  datatype  id    code property
//! ```
//!
//! ```text
//! cargo run -p mp-bench --bin fig4_materials_api
//! ```

use mp_core::MaterialsProject;
use mp_dft::Incar;
use mp_fireworks::{Binder, Firework, Stage, Workflow};
use mp_mapi::ApiRequest;
use mp_matsci::{prototypes, Element, MpsRecord, MpsSource};
use serde_json::json;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Figure 4: the Materials API URI ===\n");

    // Put the paper's own example compound — ferric oxide — through the
    // full pipeline so the API query below is served from real task data.
    let mut mp = MaterialsProject::new()?;
    // Build an Fe2O3 cell from the rutile FeO2 prototype (cell Fe2O4)
    // with one oxygen vacancy — a corundum stand-in with the right
    // stoichiometry.
    let mut s = prototypes::rutile(Element::from_symbol("Fe")?, Element::from_symbol("O")?);
    s.sites.remove(s.sites.len() - 1);
    let rec = MpsRecord::new("mps-fe2o3", s, MpsSource::Icsd { code: 15840 });
    assert_eq!(rec.structure.formula(), "Fe2O3");
    mp.database().collection("mps").insert_one(rec.to_doc())?;

    let spec = mp_core::make_spec(&rec, &Incar::default(), 50_000.0);
    let fw = Firework::new("fw-fe2o3", "static Fe2O3", Stage(spec))
        .with_binder(Binder::new(rec.structure.fingerprint(), "GGA"));
    mp.launchpad()
        .add_workflow(&Workflow::single("wf-fe2o3", fw))?;
    let report = mp.run_campaign(10)?;
    println!("pipeline: {} task(s) computed\n", report.completed);
    mp.build_views(Element::from_symbol("Li")?)?;

    let api = mp.materials_api();
    let uri = "/rest/v1/materials/Fe2O3/vasp/energy";
    println!("URI anatomy:");
    println!("  /rest        preamble");
    println!("  /v1          version");
    println!("  /materials   datatype");
    println!("  /Fe2O3       identifier");
    println!("  /vasp        application (code)");
    println!("  /energy      property\n");

    let resp = api.handle(&ApiRequest::get(uri));
    println!("GET {uri}");
    println!("-> {}", serde_json::to_string_pretty(&resp.body())?);
    assert_eq!(resp.status, 200);
    let energy = resp.payload()[0]["output"]["energy"].as_f64().unwrap();
    println!("\ncalculated energy of Fe2O3: {energy:.3} eV/cell");

    // The other anatomy degrees of freedom.
    println!("\nvariations:");
    for u in [
        "/rest/v1/materials/Fe2O3",
        "/rest/v1/materials/Fe2O3/vasp/band_gap",
        "/rest/v1/materials/Fe-O",
        "/rest/v1/materials/mp-fe2o3",
        "/rest/v2/materials/Fe2O3/vasp/energy",
        "/rest/v1/materials/Fe2O3/vasp/password",
    ] {
        let r = api.handle(&ApiRequest::get(u).at(10.0));
        println!("  GET {u:<45} -> {}", r.status);
    }

    // Results are JSON "that can easily be consumed by other software":
    let as_json: serde_json::Value = resp.body();
    assert!(as_json["valid_response"].as_bool().unwrap());
    let _ = json!({"consumed_by": "pymatgen-equivalent tooling"});
    Ok(())
}
