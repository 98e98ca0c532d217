//! Derived-view builders (§III-B3).
//!
//! "There may be multiple results in tasks corresponding to the same MPS
//! input. We wish to present only one result to the user, so we run a
//! MapReduce operation on the tasks to group them by the MPS identifier
//! and pick a single 'best' result." The `materials` collection this
//! produces is the view the Web UI and Materials API serve.

use mp_docstore::{Database, MapReduce, Result};
use serde_json::{json, Value};

/// Build (or rebuild) the `materials` collection by grouping converged
/// `tasks` by `mps_id` and keeping the lowest-energy result per
/// material. Returns the number of materials written.
pub fn build_materials_view(db: &Database, engine: &dyn MapReduce) -> Result<usize> {
    let tasks = db.collection("tasks").dump();
    let map = |doc: &Value, emit: &mut dyn FnMut(Value, Value)| {
        if doc["status"] == json!("converged") {
            if let Some(mps_id) = doc.get("mps_id").and_then(Value::as_str) {
                emit(json!(mps_id), doc.clone());
            }
        }
    };
    let reduce = |_key: &Value, values: &[Value]| -> Value {
        values
            .iter()
            .min_by(|a, b| {
                let ea = a["output"]["energy_per_atom"]
                    .as_f64()
                    .unwrap_or(f64::INFINITY);
                let eb = b["output"]["energy_per_atom"]
                    .as_f64()
                    .unwrap_or(f64::INFINITY);
                ea.partial_cmp(&eb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .cloned()
            .unwrap_or(Value::Null)
    };
    let groups = engine.run(&tasks, &map, &reduce)?;

    let rows: Vec<Value> = groups
        .into_iter()
        .filter(|(_, best)| !best.is_null())
        .map(|(mps_id, best)| {
            let mps_str = mps_id.as_str().unwrap_or("unknown");
            let material_id = format!("mp-{}", mps_str.trim_start_matches("mps-"));
            let nelements = best["elements"].as_array().map(Vec::len).unwrap_or(0);
            json!({
                "_id": material_id,
                "material_id": material_id,
                "mps_id": mps_id,
                "formula": best["formula"],
                "chemsys": best["chemsys"],
                "elements": best["elements"],
                "nelements": nelements,
                "nsites": best["nsites"],
                "nelectrons": best["nelectrons"],
                "output": best["output"],
                "provenance": {"task_id": best["_id"], "fw_id": best["fw_id"]},
            })
        })
        .collect();
    let written = rows.len();
    // Cleared, the view is refilled in one batch: the bulk build.
    let materials = db.collection("materials");
    materials.clear()?;
    materials.insert_many(rows)?;
    materials.create_index("formula", false)?;
    materials.create_index("chemsys", false)?;
    materials.create_index("elements", false)?;
    Ok(written)
}

/// A V&V check implemented as MapReduce (§IV-C2: "A logical language in
/// which to write the V&V of a database is MapReduce, with the Map
/// finding the items to compare and the Reduce performing the
/// comparisons.") — returns (check name, offending ids).
pub type VnvViolations = Vec<(String, Vec<String>)>;

/// Run the standard consistency checks over `materials` and `tasks`.
pub fn run_vnv_checks(db: &Database, engine: &dyn MapReduce) -> Result<VnvViolations> {
    let mut violations: VnvViolations = Vec::new();

    // Check 1: every material's energy_per_atom must be negative and
    // physically bounded.
    let materials = db.collection("materials").dump();
    let map = |doc: &Value, emit: &mut dyn FnMut(Value, Value)| {
        let e = doc["output"]["energy_per_atom"].as_f64().unwrap_or(0.0);
        if !(-50.0..0.0).contains(&e) {
            emit(json!("bad_energy"), doc["_id"].clone());
        }
    };
    let collect = |_k: &Value, vs: &[Value]| -> Value { json!(vs) };
    let out = engine.run(&materials, &map, &collect)?;
    violations.push(("energy_in_physical_range".into(), flatten_ids(&out)));

    // Check 2: one material per mps_id (the view builder's contract).
    let map = |doc: &Value, emit: &mut dyn FnMut(Value, Value)| {
        emit(doc["mps_id"].clone(), doc["_id"].clone());
    };
    let dups = |_k: &Value, vs: &[Value]| -> Value { json!(vs) };
    let out = engine.run(&materials, &map, &dups)?;
    let mut dup_ids = Vec::new();
    for (_, v) in &out {
        if let Some(arr) = v.as_array() {
            if arr.len() > 1 {
                dup_ids.extend(arr.iter().filter_map(Value::as_str).map(String::from));
            }
        }
    }
    violations.push(("unique_material_per_mps".into(), dup_ids));

    // Check 3: every material's provenance task exists and converged.
    let tasks = db.collection("tasks");
    let mut orphan_ids = Vec::new();
    for m in &materials {
        let task_id = m["provenance"]["task_id"].clone();
        let found = tasks.find_one(&json!({"_id": task_id, "status": "converged"}))?;
        if found.is_none() {
            if let Some(id) = m["_id"].as_str() {
                orphan_ids.push(id.to_string());
            }
        }
    }
    violations.push(("provenance_task_exists".into(), orphan_ids));

    Ok(violations)
}

fn flatten_ids(groups: &[(Value, Value)]) -> Vec<String> {
    let mut out = Vec::new();
    for (_, v) in groups {
        match v {
            Value::Array(a) => out.extend(a.iter().filter_map(Value::as_str).map(String::from)),
            Value::String(s) => out.push(s.to_string()),
            _ => {}
        }
    }
    out
}

/// Did all checks pass?
pub fn vnv_clean(violations: &VnvViolations) -> bool {
    violations.iter().all(|(_, ids)| ids.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_docstore::BuiltinEngine;

    fn task(id: &str, mps: &str, energy: f64, status: &str) -> Value {
        json!({
            "_id": id, "fw_id": format!("fw-{id}"), "mps_id": mps,
            "status": status,
            "formula": "Fe2O3", "chemsys": "Fe-O", "elements": ["Fe", "O"],
            "nsites": 10, "nelectrons": 76.0,
            "output": {"energy_per_atom": energy, "energy": energy * 10.0, "band_gap": 2.0},
        })
    }

    #[test]
    fn builds_best_result_per_mps() {
        let db = Database::new();
        let tasks = db.collection("tasks");
        tasks
            .insert_many(vec![
                task("t1", "mps-1", -6.0, "converged"),
                task("t2", "mps-1", -6.9, "converged"), // better
                task("t3", "mps-2", -5.0, "converged"),
                task("t4", "mps-3", -4.0, "unconverged"), // excluded
            ])
            .unwrap();
        let n = build_materials_view(&db, &BuiltinEngine::default()).unwrap();
        assert_eq!(n, 2);
        let m1 = db
            .collection("materials")
            .find_one(&json!({"mps_id": "mps-1"}))
            .unwrap()
            .unwrap();
        assert_eq!(m1["output"]["energy_per_atom"], json!(-6.9));
        assert_eq!(m1["provenance"]["task_id"], "t2");
        assert_eq!(m1["_id"], "mp-1");
    }

    #[test]
    fn rebuild_replaces_view() {
        let db = Database::new();
        db.collection("tasks")
            .insert_one(task("t1", "mps-1", -6.0, "converged"))
            .unwrap();
        build_materials_view(&db, &BuiltinEngine::default()).unwrap();
        assert_eq!(db.collection("materials").len(), 1);
        // New better task arrives; rebuild updates the view.
        db.collection("tasks")
            .insert_one(task("t9", "mps-1", -7.5, "converged"))
            .unwrap();
        build_materials_view(&db, &BuiltinEngine::default()).unwrap();
        assert_eq!(db.collection("materials").len(), 1);
        let m = db
            .collection("materials")
            .find_one(&json!({"mps_id": "mps-1"}))
            .unwrap()
            .unwrap();
        assert_eq!(m["output"]["energy_per_atom"], json!(-7.5));
    }

    #[test]
    fn vnv_passes_on_clean_data() {
        let db = Database::new();
        db.collection("tasks")
            .insert_many(vec![
                task("t1", "mps-1", -6.0, "converged"),
                task("t2", "mps-2", -5.0, "converged"),
            ])
            .unwrap();
        build_materials_view(&db, &BuiltinEngine::default()).unwrap();
        let v = run_vnv_checks(&db, &BuiltinEngine::default()).unwrap();
        assert!(vnv_clean(&v), "{v:?}");
    }

    #[test]
    fn vnv_catches_bad_energy() {
        let db = Database::new();
        db.collection("materials")
            .insert_one(json!({
                "_id": "mp-bad", "mps_id": "mps-9",
                "output": {"energy_per_atom": 3.0},
                "provenance": {"task_id": "t-none"},
            }))
            .unwrap();
        let v = run_vnv_checks(&db, &BuiltinEngine::default()).unwrap();
        assert!(!vnv_clean(&v));
        let bad = v
            .iter()
            .find(|(n, _)| n == "energy_in_physical_range")
            .unwrap();
        assert_eq!(bad.1, vec!["mp-bad".to_string()]);
        // Provenance check also fires.
        let orphan = v
            .iter()
            .find(|(n, _)| n == "provenance_task_exists")
            .unwrap();
        assert_eq!(orphan.1, vec!["mp-bad".to_string()]);
    }

    #[test]
    fn vnv_catches_duplicate_materials() {
        let db = Database::new();
        db.collection("materials")
            .insert_many(vec![
                json!({"_id": "mp-a", "mps_id": "mps-1",
                       "output": {"energy_per_atom": -1.0}, "provenance": {"task_id": "t"}}),
                json!({"_id": "mp-b", "mps_id": "mps-1",
                       "output": {"energy_per_atom": -1.0}, "provenance": {"task_id": "t"}}),
            ])
            .unwrap();
        let v = run_vnv_checks(&db, &BuiltinEngine::default()).unwrap();
        let dups = v
            .iter()
            .find(|(n, _)| n == "unique_material_per_mps")
            .unwrap();
        assert_eq!(dups.1.len(), 2);
    }
}
