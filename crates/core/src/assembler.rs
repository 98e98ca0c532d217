//! The Assembler (§III-C2): turns a Firework's Stage dictionary into the
//! concrete inputs a calculation consumes — structure, INCAR, KPOINTS —
//! "translated into input files on a compute node".

use mp_dft::{Incar, Kpoints};
use mp_matsci::{MpsRecord, Structure};
use serde_json::{json, Value};

/// The assembled inputs of one calculation.
#[derive(Debug, Clone)]
pub struct AssembledJob {
    /// Calculation type: "static" or "relax".
    pub task_type: String,
    /// The crystal to compute.
    pub structure: Structure,
    /// Calculation parameters.
    pub incar: Incar,
    /// k-point mesh.
    pub kpoints: Kpoints,
    /// Requested walltime (s).
    pub walltime_s: f64,
    /// MPS provenance id.
    pub mps_id: String,
}

/// Assembly failure (malformed spec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembleError(pub String);

impl std::fmt::Display for AssembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "assembler: {}", self.0)
    }
}
impl std::error::Error for AssembleError {}

/// Build the Stage spec document for an MPS record — the inverse of
/// [`assemble`]. Derived queryable fields (elements, nelectrons) ride
/// along so the paper's job-selection queries work on the spec.
pub fn make_spec(rec: &MpsRecord, incar: &Incar, walltime_s: f64) -> Value {
    make_typed_spec(rec, incar, walltime_s, "static")
}

/// Build a spec with an explicit task type ("relax" or "static").
pub fn make_typed_spec(rec: &MpsRecord, incar: &Incar, walltime_s: f64, task_type: &str) -> Value {
    let comp = rec.composition();
    json!({
        "task_type": task_type,
        "mps_id": rec.mps_id,
        "formula": comp.reduced_formula(),
        "elements": comp.elements().iter().map(|e| e.symbol()).collect::<Vec<_>>(),
        "nelectrons": comp.num_electrons(),
        "structure": serde_json::to_value(&rec.structure).expect("structure serializes"),
        "incar": incar.to_dict(),
        "kpoints": {"kppra": 20.0},
        "walltime_s": walltime_s,
        "nodes": 1,
    })
}

/// Translate a spec back into runnable inputs.
pub fn assemble(spec: &Value) -> Result<AssembledJob, AssembleError> {
    let structure: Structure = serde_json::from_value(spec["structure"].clone())
        .map_err(|e| AssembleError(format!("structure: {e}")))?;
    let incar = Incar::from_dict(&spec["incar"]).map_err(|e| AssembleError(e.to_string()))?;
    let kpoints = if let Some(mesh) = spec["kpoints"].get("mesh") {
        let m: [u32; 3] = serde_json::from_value(mesh.clone())
            .map_err(|e| AssembleError(format!("kpoints: {e}")))?;
        Kpoints { mesh: m }
    } else {
        let kppra = spec["kpoints"]["kppra"].as_f64().unwrap_or(20.0);
        Kpoints::automatic(structure.lattice.lengths(), kppra)
    };
    let walltime_s = spec["walltime_s"].as_f64().unwrap_or(3600.0);
    let mps_id = spec["mps_id"].as_str().unwrap_or("unknown").to_string();
    let task_type = spec["task_type"].as_str().unwrap_or("static").to_string();
    Ok(AssembledJob {
        task_type,
        structure,
        incar,
        kpoints,
        walltime_s,
        mps_id,
    })
}

/// Render the assembled job as the classic input files (for logging and
/// the quickstart example) — what lands on the compute node's scratch.
pub fn render_input_files(job: &AssembledJob) -> Vec<(String, String)> {
    let mut poscar = format!("{}\n1.0\n", job.structure.formula());
    for row in &job.structure.lattice.matrix {
        poscar.push_str(&format!("{:.6} {:.6} {:.6}\n", row[0], row[1], row[2]));
    }
    for site in &job.structure.sites {
        poscar.push_str(&format!(
            "{} {:.6} {:.6} {:.6}\n",
            site.element.symbol(),
            site.frac[0],
            site.frac[1],
            site.frac[2]
        ));
    }
    let incar = format!(
        "ENCUT = {}\nEDIFF = {:e}\nNELM = {}\nALGO = {:?}\nAMIX = {}\nIBRION = {}\n",
        job.incar.encut,
        job.incar.ediff,
        job.incar.nelm,
        job.incar.algo,
        job.incar.amix,
        job.incar.ibrion
    );
    let kpoints = format!(
        "Automatic mesh\n0\nGamma\n{} {} {}\n",
        job.kpoints.mesh[0], job.kpoints.mesh[1], job.kpoints.mesh[2]
    );
    vec![
        ("POSCAR".into(), poscar),
        ("INCAR".into(), incar),
        ("KPOINTS".into(), kpoints),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_matsci::{prototypes, Element, MpsSource};

    fn rec() -> MpsRecord {
        MpsRecord::new(
            "mps-7",
            prototypes::rocksalt(
                Element::from_symbol("Na").unwrap(),
                Element::from_symbol("Cl").unwrap(),
            ),
            MpsSource::Icsd { code: 1 },
        )
    }

    #[test]
    fn spec_roundtrip() {
        let spec = make_spec(&rec(), &Incar::default(), 7200.0);
        let job = assemble(&spec).unwrap();
        assert_eq!(job.structure.formula(), "NaCl");
        assert_eq!(job.walltime_s, 7200.0);
        assert_eq!(job.mps_id, "mps-7");
        assert!(job.kpoints.total() >= 1);
    }

    #[test]
    fn spec_is_queryable() {
        let spec = make_spec(&rec(), &Incar::default(), 3600.0);
        let f = mp_docstore::Filter::parse(&json!({"elements": {"$all": ["Na", "Cl"]}}))
            .unwrap()
            .compile();
        assert!(f.matches(&spec));
    }

    #[test]
    fn explicit_mesh_honored() {
        let mut spec = make_spec(&rec(), &Incar::default(), 3600.0);
        spec["kpoints"] = json!({"mesh": [4, 4, 4]});
        let job = assemble(&spec).unwrap();
        assert_eq!(job.kpoints.total(), 64);
    }

    #[test]
    fn malformed_spec_rejected() {
        assert!(assemble(&json!({"structure": "nope"})).is_err());
        let mut spec = make_spec(&rec(), &Incar::default(), 3600.0);
        spec["incar"]["encut"] = json!(1.0); // fails validation
        assert!(assemble(&spec).is_err());
    }

    #[test]
    fn input_files_render() {
        let spec = make_spec(&rec(), &Incar::default(), 3600.0);
        let job = assemble(&spec).unwrap();
        let files = render_input_files(&job);
        assert_eq!(files.len(), 3);
        assert!(files[0].1.contains("NaCl"));
        assert!(files[1].1.contains("ENCUT = 520"));
    }
}
