//! Derived-property pipelines: the analyses that populate the
//! `materials`, `phase_diagrams`, `batteries`, `bandstructures` and
//! `xrd_patterns` collections from raw `tasks` (§III-B3: "Each type of
//! calculated properties is given its own collection").

use mp_dft::energy_per_atom;
use mp_docstore::{Database, HadoopEngine, Result};
use mp_matsci::analysis::battery::{ConversionElectrode, InsertionElectrode, LithiationPoint};
use mp_matsci::analysis::phase_diagram::{PdEntry, PhaseDiagram};
use mp_matsci::{
    compute_bands, compute_pattern, prototypes, Composition, Element, Structure, CU_KA,
};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Reference energy of an element in its simple metallic/elemental form.
pub fn elemental_reference(el: Element) -> f64 {
    energy_per_atom(&prototypes::fcc(el))
        .min(energy_per_atom(&prototypes::bcc(el)))
        .min(energy_per_atom(&prototypes::hcp(el)))
}

/// Attach the MPS structure to every material document (the view builder
/// keeps only task fields; analyses need geometry).
pub fn attach_structures(db: &Database) -> Result<usize> {
    let materials = db.collection("materials");
    let mps = db.collection("mps");
    let mut updated = 0;
    for m in materials.dump() {
        let mps_id = m["mps_id"].clone();
        if let Some(rec) = mps.find_one(&json!({"_id": mps_id}))? {
            materials.update_one(
                &json!({"_id": m["_id"]}),
                &json!({"$set": {"structure": rec["structure"], "density": rec["density"]}}),
            )?;
            updated += 1;
        }
    }
    Ok(updated)
}

fn structure_of(doc: &Value) -> Option<Structure> {
    serde_json::from_value(doc.get("structure")?.clone()).ok()
}

/// Compute stability (formation energy, e_above_hull, decomposition) for
/// every material and store per-chemical-system phase diagrams.
/// Returns the number of stable materials.
pub fn build_phase_diagrams(db: &Database) -> Result<usize> {
    let materials = db.collection("materials");
    let docs = materials.dump();

    // Group materials by chemical system; entries for a system are all
    // materials whose elements are a subset of it, plus elemental refs.
    let mut parsed: Vec<(Value, Composition, f64)> = Vec::new();
    for d in &docs {
        let (Some(formula), Some(epa)) = (
            d["formula"].as_str(),
            d["output"]["energy_per_atom"].as_f64(),
        ) else {
            continue;
        };
        if let Ok(comp) = Composition::parse(formula) {
            parsed.push((d["_id"].clone(), comp, epa));
        }
    }

    let mut systems: BTreeMap<String, Vec<Element>> = BTreeMap::new();
    for (_, comp, _) in &parsed {
        systems
            .entry(comp.chemical_system())
            .or_insert_with(|| comp.elements());
    }

    let pd_coll = db.collection("phase_diagrams");
    pd_coll.clear()?;
    let mut stable_count = 0;
    for (sys_name, sys_els) in &systems {
        let mut entries: Vec<PdEntry> = Vec::new();
        for &el in sys_els {
            entries.push(PdEntry::new(
                format!("ref-{}", el.symbol()),
                Composition::from_pairs([(el, 1.0)]),
                elemental_reference(el),
            ));
        }
        let mut member_ids: Vec<Value> = Vec::new();
        for (id, comp, epa) in &parsed {
            let subset = comp.elements().iter().all(|e| sys_els.contains(e));
            if subset {
                entries.push(PdEntry::new(id.as_str().unwrap_or("?"), comp.clone(), *epa));
                if comp.chemical_system() == *sys_name {
                    member_ids.push(id.clone());
                }
            }
        }
        let Ok(pd) = PhaseDiagram::new(entries) else {
            continue;
        };
        let mut stable_formulas: Vec<String> = Vec::new();
        for (i, e) in pd.entries.iter().enumerate() {
            if !member_ids.contains(&json!(e.id)) {
                continue;
            }
            let ef = pd.formation_energy_per_atom(&e.composition, e.energy_per_atom);
            let decomp = pd.decomposition(i);
            let is_stable = decomp.e_above_hull < 1e-6;
            if is_stable {
                stable_count += 1;
                stable_formulas.push(e.composition.reduced_formula());
            }
            materials.update_one(
                &json!({"_id": e.id}),
                &json!({"$set": {"stability": {
                    "formation_energy_per_atom": ef,
                    "e_above_hull": decomp.e_above_hull,
                    "is_stable": is_stable,
                    "decomposes_to": decomp.products.iter()
                        .map(|(id, f)| json!({"id": id, "fraction": f}))
                        .collect::<Vec<_>>(),
                }}}),
            )?;
        }
        pd_coll.insert_one(json!({
            "_id": sys_name,
            "chemsys": sys_name,
            "nelements": sys_els.len(),
            "nentries": pd.entries.len(),
            "stable_formulas": stable_formulas,
        }))?;
    }
    Ok(stable_count)
}

/// Screen every alkali-bearing oxide material as an intercalation
/// electrode and every alkali-free compound as a conversion electrode.
/// Populates the `batteries` collection; returns
/// (intercalation, conversion) counts.
pub fn build_batteries(db: &Database, working_ion: Element) -> Result<(usize, usize)> {
    let materials = db.collection("materials");
    let batteries = db.collection("batteries");
    let ion_ref = elemental_reference(working_ion);
    let mut n_int = 0;
    let mut n_conv = 0;
    for m in materials.dump() {
        let Some(structure) = structure_of(&m) else {
            continue;
        };
        let comp = structure.composition();
        let has_ion = comp.amount(working_ion) > 0.0;
        let has_anion = comp.elements().iter().any(|e| e.is_anion_former());
        if !has_anion {
            continue;
        }
        let material_id = m["_id"].as_str().unwrap_or("?").to_string();
        if has_ion {
            // Intercalation: compare against the delithiated framework.
            let framework = structure.without_element(working_ion);
            if framework.num_sites() == 0 {
                continue;
            }
            let x_max = comp.amount(working_ion);
            let e_lith = m["output"]["energy_per_atom"]
                .as_f64()
                .unwrap_or_else(|| energy_per_atom(&structure))
                * structure.num_sites() as f64;
            let e_frame = energy_per_atom(&framework) * framework.num_sites() as f64;
            let electrode = InsertionElectrode::new(
                framework.composition(),
                working_ion,
                ion_ref,
                vec![
                    LithiationPoint {
                        x: 0.0,
                        energy: e_frame,
                    },
                    LithiationPoint {
                        x: x_max,
                        energy: e_lith,
                    },
                ],
            );
            if let Ok(e) = electrode {
                let v = e.average_voltage();
                // Physical screening window (Fig. 1 axes: 0–5 V).
                if v > 0.0 && v < 6.0 {
                    let mut doc = e.to_doc(&format!("bat-{material_id}"));
                    doc["material_id"] = json!(material_id);
                    // The follow-up screen the paper names: ion
                    // diffusivity, "related to power delivered by the
                    // cell". A 2×2×1 supercell exposes ion–ion hops in
                    // single-ion cells.
                    let sc = if comp.amount(working_ion) < 2.0 {
                        structure.supercell(2, 2, 1)
                    } else {
                        structure.clone()
                    };
                    if let Some(path) =
                        mp_matsci::analysis::diffusion::easiest_path(&sc, working_ion)
                    {
                        doc["migration_barrier_ev"] = json!(path.barrier_ev);
                        doc["bottleneck_radius"] = json!(path.bottleneck_radius);
                        doc["diffusivity_300k"] = json!(
                            mp_matsci::analysis::diffusion::diffusivity(path.barrier_ev, 300.0)
                        );
                    }
                    batteries.insert_one(doc)?;
                    n_int += 1;
                }
            }
        } else {
            // Conversion: full reduction by the working ion,
            // M_aX_b + z·b·A → a·M + b·A_zX.
            let Some(conv) = conversion_reaction(&comp, working_ion) else {
                continue;
            };
            if conv.voltage > 0.0 && conv.voltage < 6.0 {
                let mut doc = conv.to_doc(&format!("bat-{material_id}"));
                doc["material_id"] = json!(material_id);
                batteries.insert_one(doc)?;
                n_conv += 1;
            }
        }
    }
    batteries.create_index("type", false)?;
    Ok((n_int, n_conv))
}

/// Model the full conversion reaction of `comp` with `ion`: every anion
/// X becomes the binary A_zX (z from the ion/anion valences), every
/// metal is reduced to its element.
pub fn conversion_reaction(comp: &Composition, ion: Element) -> Option<ConversionElectrode> {
    let o = Element::from_symbol("O").expect("O");
    let s = Element::from_symbol("S").expect("S");
    let f = Element::from_symbol("F").expect("F");
    let cl = Element::from_symbol("Cl").expect("Cl");
    // Supported anion products: A2O, A2S, AF, ACl (A = working ion).
    let mut x_ions = 0.0;
    let mut products_energy = 0.0;
    let mut reduced_metals = comp.clone();
    for (anion, per) in [(o, 2.0), (s, 2.0), (f, 1.0), (cl, 1.0)] {
        let n = comp.amount(anion);
        if n == 0.0 {
            continue;
        }
        x_ions += per * n;
        let product = if per == 2.0 {
            // Anti-fluorite A2X.
            prototypes::fluorite(anion, ion)
        } else {
            prototypes::rocksalt(ion, anion)
        };
        let fu_atoms = 1.0 + per; // atoms per formula unit of A_perX
        products_energy += energy_per_atom(&product) * fu_atoms * n;
        reduced_metals = reduced_metals.without(anion);
    }
    if x_ions == 0.0 {
        return None;
    }
    // Unsupported anions present? Skip the material.
    if reduced_metals
        .elements()
        .iter()
        .any(|e| e.is_anion_former())
    {
        return None;
    }
    for (el, n) in reduced_metals.iter() {
        products_energy += elemental_reference(el) * n;
    }
    // The reactant energy comes from a composition-keyed estimate; when
    // a real computed structure energy exists the intercalation path is
    // used instead, so this estimate only feeds conversion screening.
    let reactant_energy = comp_energy_estimate(comp);
    let ion_e = elemental_reference(ion);
    let de = products_energy - reactant_energy - x_ions * ion_e;
    Some(ConversionElectrode::from_reaction_energy(
        comp.clone(),
        ion,
        x_ions,
        de,
    ))
}

/// Composition-level energy estimate (per formula unit) when no
/// structure is at hand: weighted elemental references plus an ionic
/// stabilization from the electronegativity spread.
fn comp_energy_estimate(comp: &Composition) -> f64 {
    let mut e = 0.0;
    for (el, n) in comp.iter() {
        e += elemental_reference(el) * n;
    }
    let chis: Vec<f64> = comp
        .elements()
        .iter()
        .map(|e| e.electronegativity())
        .collect();
    let spread = chis.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - chis.iter().cloned().fold(f64::INFINITY, f64::min);
    e - 0.9 * spread * comp.num_atoms()
}

/// Compute band structures for up to `limit` materials (they are the
/// big documents of the datastore). Returns how many were stored.
pub fn build_bandstructures(db: &Database, limit: usize) -> Result<usize> {
    let materials = db.collection("materials");
    let bs_coll = db.collection("bandstructures");
    let dos_coll = db.collection("dos");
    let mut n = 0;
    for m in materials.dump() {
        if n >= limit {
            break;
        }
        let Some(structure) = structure_of(&m) else {
            continue;
        };
        let bs = compute_bands(&structure, 8, 24);
        let id = m["_id"].as_str().unwrap_or("?");
        let mut doc = bs.to_doc(id);
        doc["_id"] = json!(format!("bs-{id}"));
        bs_coll.insert_one(doc)?;
        // The companion spectrum the web UI plots: the density of states.
        let dos = bs.dos(300, 0.1);
        let mut dos_doc = dos.to_doc(id);
        dos_doc["_id"] = json!(format!("dos-{id}"));
        dos_coll.insert_one(dos_doc)?;
        materials.update_one(
            &json!({"_id": m["_id"]}),
            &json!({"$set": {"has_bandstructure": true,
                              "output.band_gap_bs": bs.band_gap,
                              "output.dos_at_fermi": dos.at_fermi()}}),
        )?;
        n += 1;
    }
    Ok(n)
}

/// Compute powder XRD patterns for up to `limit` materials.
pub fn build_xrd(db: &Database, limit: usize) -> Result<usize> {
    let materials = db.collection("materials");
    let xrd_coll = db.collection("xrd_patterns");
    let mut n = 0;
    for m in materials.dump() {
        if n >= limit {
            break;
        }
        let Some(structure) = structure_of(&m) else {
            continue;
        };
        let pat = compute_pattern(&structure, CU_KA, 90.0);
        let id = m["_id"].as_str().unwrap_or("?");
        let mut doc = pat.to_doc(id);
        doc["_id"] = json!(format!("xrd-{id}"));
        xrd_coll.insert_one(doc)?;
        n += 1;
    }
    Ok(n)
}

/// Run the full post-processing stack: view build (parallel MapReduce),
/// structures, stability, batteries, band structures, XRD.
pub fn build_all_views(db: &Database, working_ion: Element) -> Result<Value> {
    let engine = HadoopEngine::new(4);
    let n_materials = mp_mapi::build_materials_view(db, &engine)?;
    let n_attached = attach_structures(db)?;
    let n_stable = build_phase_diagrams(db)?;
    let (n_int, n_conv) = build_batteries(db, working_ion)?;
    let n_bs = build_bandstructures(db, usize::MAX)?;
    let n_xrd = build_xrd(db, usize::MAX)?;
    Ok(json!({
        "materials": n_materials,
        "structures_attached": n_attached,
        "stable": n_stable,
        "intercalation_batteries": n_int,
        "conversion_batteries": n_conv,
        "bandstructures": n_bs,
        "xrd_patterns": n_xrd,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn el(s: &str) -> Element {
        Element::from_symbol(s).unwrap()
    }

    #[test]
    fn elemental_reference_is_negative() {
        for sym in ["Li", "Fe", "O", "Cu"] {
            let e = elemental_reference(el(sym));
            assert!(e < 0.0, "{sym}: {e}");
        }
    }

    fn seeded_db() -> Database {
        let db = Database::new();
        // mps + tasks for three materials in the Li-Co-O system.
        let mats = [
            (
                "mps-1",
                prototypes::layered_amo2(el("Li"), el("Co"), el("O")),
            ),
            ("mps-2", prototypes::rutile(el("Co"), el("O"))),
            ("mps-3", prototypes::rocksalt(el("Li"), el("O"))),
            ("mps-4", prototypes::rocksalt(el("Na"), el("Cl"))),
        ];
        for (id, s) in &mats {
            let rec =
                mp_matsci::MpsRecord::new(*id, s.clone(), mp_matsci::MpsSource::Icsd { code: 1 });
            db.collection("mps").insert_one(rec.to_doc()).unwrap();
            let comp = s.composition();
            let epa = energy_per_atom(s);
            db.collection("tasks")
                .insert_one(json!({
                    "_id": format!("task-{id}"), "fw_id": format!("fw-{id}"),
                    "mps_id": id, "status": "converged",
                    "formula": comp.reduced_formula(),
                    "chemsys": comp.chemical_system(),
                    "elements": comp.elements().iter().map(|e| e.symbol()).collect::<Vec<_>>(),
                    "nsites": s.num_sites(),
                    "nelectrons": comp.num_electrons(),
                    "output": {"energy_per_atom": epa, "energy": epa * s.num_sites() as f64,
                               "band_gap": 1.0},
                }))
                .unwrap();
        }
        db
    }

    #[test]
    fn full_pipeline_populates_collections() {
        let db = seeded_db();
        let summary = build_all_views(&db, el("Li")).unwrap();
        assert_eq!(summary["materials"], 4);
        assert_eq!(summary["structures_attached"], 4);
        assert!(db.collection("phase_diagrams").len() >= 3);
        assert!(!db.collection("batteries").is_empty());
        assert_eq!(db.collection("bandstructures").len(), 4);
        assert_eq!(db.collection("xrd_patterns").len(), 4);
    }

    #[test]
    fn stability_fields_present_and_consistent() {
        let db = seeded_db();
        build_all_views(&db, el("Li")).unwrap();
        for m in db.collection("materials").dump() {
            let st = &m["stability"];
            assert!(st["e_above_hull"].as_f64().unwrap() >= -1e-9, "{m}");
            let is_stable = st["is_stable"].as_bool().unwrap();
            if is_stable {
                assert!(st["e_above_hull"].as_f64().unwrap() < 1e-6);
            }
        }
    }

    #[test]
    fn intercalation_battery_in_window() {
        let db = seeded_db();
        build_all_views(&db, el("Li")).unwrap();
        let bats = db
            .collection("batteries")
            .find(&json!({"type": "intercalation"}))
            .unwrap();
        assert!(!bats.is_empty());
        for b in bats {
            let v = b["average_voltage"].as_f64().unwrap();
            let c = b["capacity_grav"].as_f64().unwrap();
            assert!(v > 0.0 && v < 6.0, "voltage {v}");
            assert!(c > 30.0 && c < 1500.0, "capacity {c}");
        }
    }

    #[test]
    fn conversion_reaction_fe2o3() {
        let conv = conversion_reaction(&Composition::parse("Fe2O3").unwrap(), el("Li")).unwrap();
        assert_eq!(conv.x_ions, 6.0);
        let cap = conv.gravimetric_capacity();
        assert!(cap > 500.0 && cap < 1300.0, "conversion capacity {cap}");
    }

    #[test]
    fn conversion_skips_unsupported_anions() {
        assert!(conversion_reaction(&Composition::parse("Fe3N2").unwrap(), el("Li")).is_none());
        assert!(conversion_reaction(&Composition::parse("FeNi").unwrap(), el("Li")).is_none());
    }
}
