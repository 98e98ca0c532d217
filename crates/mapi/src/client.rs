//! The analytics client (§III-D3).
//!
//! "The pymatgen library can import and export data from a number of
//! existing formats, including fetching data via the Materials API.
//! This provides a natural and powerful interface for jointly analyzing
//! local and remote data." This module is that client: a typed wrapper
//! over [`crate::MaterialsApi`] that fetches structures, entries, and
//! spectra ready for the analysis tools — pymatgen's `MPRester`.

use crate::rest::{ApiRequest, ApiResponse, MaterialsApi};
use mp_matsci::analysis::phase_diagram::PdEntry;
use mp_matsci::{Composition, Structure};
use serde_json::{json, Value};

/// Client-side errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Non-200 API response.
    Api {
        /// HTTP-style status.
        status: u16,
        /// Server-provided message.
        message: String,
    },
    /// Response payload didn't parse into the requested type.
    Malformed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Api { status, message } => write!(f, "API {status}: {message}"),
            ClientError::Malformed(m) => write!(f, "malformed response: {m}"),
        }
    }
}
impl std::error::Error for ClientError {}

/// A typed Materials API client (the `MPRester` analogue).
pub struct MpClient<'a> {
    api: &'a MaterialsApi,
    api_key: Option<String>,
    /// Simulated request clock; advances per call so rate limiting
    /// behaves as it would for a paced script.
    now: std::cell::Cell<f64>,
}

impl<'a> MpClient<'a> {
    /// Anonymous client.
    pub fn new(api: &'a MaterialsApi) -> Self {
        MpClient {
            api,
            api_key: None,
            now: std::cell::Cell::new(0.0),
        }
    }

    /// Authenticated client.
    pub fn with_key(api: &'a MaterialsApi, key: &str) -> Self {
        MpClient {
            api,
            api_key: Some(key.to_string()),
            now: std::cell::Cell::new(0.0),
        }
    }

    fn request(&self, path: &str) -> ApiRequest {
        let t = self.now.get() + 1.0;
        self.now.set(t);
        let mut r = ApiRequest::get(path).at(t);
        if let Some(k) = &self.api_key {
            r = r.with_key(k);
        }
        r
    }

    /// The response itself once its status is checked: callers borrow
    /// the payload or take it by value, so a client call copies rows at
    /// most once — when they are shared with the server's cache.
    fn expect_ok(resp: ApiResponse) -> Result<ApiResponse, ClientError> {
        if resp.status != 200 {
            return Err(ClientError::Api {
                status: resp.status,
                message: resp.body()["error"]
                    .as_str()
                    .unwrap_or("unknown")
                    .to_string(),
            });
        }
        Ok(resp)
    }

    /// The rows of a checked response, by value.
    fn expect_rows(resp: ApiResponse) -> Result<Vec<Value>, ClientError> {
        match Self::expect_ok(resp)?.into_payload() {
            Value::Array(rows) => Ok(rows),
            _ => Err(ClientError::Malformed("expected array payload".into())),
        }
    }

    /// Fetch the full materials documents for an identifier (mp-id,
    /// formula, or chemical system).
    pub fn get_materials(&self, identifier: &str) -> Result<Vec<Value>, ClientError> {
        let resp = self
            .api
            .handle(&self.request(&format!("/rest/v1/materials/{identifier}")));
        Self::expect_rows(resp)
    }

    /// Fetch one material's structure, ready for local analysis.
    pub fn get_structure(&self, material_id: &str) -> Result<Structure, ClientError> {
        let docs = self.get_materials(material_id)?;
        let doc = docs
            .first()
            .ok_or_else(|| ClientError::Malformed("empty result".into()))?;
        serde_json::from_value(doc["structure"].clone())
            .map_err(|e| ClientError::Malformed(format!("structure: {e}")))
    }

    /// Fetch phase-diagram entries for a chemical system — what a
    /// pymatgen user feeds straight into `PhaseDiagram`. Subsystem
    /// materials (e.g. Fe2O3 inside Li-Fe-O) are included, as the real
    /// MPRester does.
    pub fn get_entries_in_chemsys(&self, elements: &[&str]) -> Result<Vec<PdEntry>, ClientError> {
        let criteria = json!({"elements": {"$nin": []}, "nelements": {"$lte": elements.len()}});
        let resp = self.api.structured_query(
            &self.request("/query/materials"),
            "materials",
            &criteria,
            &["formula", "energy_per_atom", "elements"],
        );
        let resp = Self::expect_ok(resp)?;
        let docs = resp
            .payload()
            .as_array()
            .ok_or_else(|| ClientError::Malformed("expected array".into()))?;
        let mut entries = Vec::new();
        for d in docs {
            let Some(formula) = d["formula"].as_str() else {
                continue;
            };
            let Ok(comp) = Composition::parse(formula) else {
                continue;
            };
            // Keep materials fully inside the requested system.
            let inside = comp
                .elements()
                .iter()
                .all(|e| elements.contains(&e.symbol()));
            if !inside {
                continue;
            }
            let Some(epa) = d["output"]["energy_per_atom"].as_f64() else {
                continue;
            };
            entries.push(PdEntry::new(
                d["_id"].as_str().unwrap_or(formula),
                comp,
                epa,
            ));
        }
        Ok(entries)
    }

    /// Run an arbitrary (sanitized) criteria/properties query — the
    /// pymatgen `MPRester.query` call.
    pub fn query(&self, criteria: &Value, properties: &[&str]) -> Result<Vec<Value>, ClientError> {
        let resp = self.api.structured_query(
            &self.request("/query/materials"),
            "materials",
            criteria,
            properties,
        );
        Self::expect_rows(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthRegistry;
    use crate::queryengine::QueryEngine;
    use mp_docstore::Database;
    use mp_matsci::{prototypes, Element};

    fn api() -> MaterialsApi {
        let db = Database::new();
        let li = Element::from_symbol("Li").unwrap();
        let co = Element::from_symbol("Co").unwrap();
        let o = Element::from_symbol("O").unwrap();
        let mats = db.collection("materials");
        let s1 = prototypes::layered_amo2(li, co, o);
        mats.insert_many(vec![
            json!({"_id": "mp-1", "formula": "LiCoO2", "chemsys": "Co-Li-O",
                   "elements": ["Li", "Co", "O"], "nelements": 3,
                   "structure": serde_json::to_value(&s1).unwrap(),
                   "output": {"energy_per_atom": -4.9, "band_gap": 2.7}}),
            json!({"_id": "mp-2", "formula": "Li2O", "chemsys": "Li-O",
                   "elements": ["Li", "O"], "nelements": 2,
                   "output": {"energy_per_atom": -3.9, "band_gap": 5.0}}),
            json!({"_id": "mp-3", "formula": "Li", "chemsys": "Li",
                   "elements": ["Li"], "nelements": 1,
                   "output": {"energy_per_atom": -1.6, "band_gap": 0.0}}),
            json!({"_id": "mp-4", "formula": "O", "chemsys": "O",
                   "elements": ["O"], "nelements": 1,
                   "output": {"energy_per_atom": -2.6, "band_gap": 0.0}}),
            json!({"_id": "mp-5", "formula": "Fe2O3", "chemsys": "Fe-O",
                   "elements": ["Fe", "O"], "nelements": 2,
                   "output": {"energy_per_atom": -6.2, "band_gap": 2.0}}),
        ])
        .unwrap();
        MaterialsApi::new(QueryEngine::new(db), AuthRegistry::new())
    }

    #[test]
    fn get_materials_by_formula() {
        let api = api();
        let client = MpClient::new(&api);
        let docs = client.get_materials("LiCoO2").unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0]["_id"], "mp-1");
    }

    #[test]
    fn get_structure_roundtrips() {
        let api = api();
        let client = MpClient::new(&api);
        let s = client.get_structure("mp-1").unwrap();
        assert_eq!(s.formula(), "LiCoO2");
    }

    #[test]
    fn entries_feed_a_phase_diagram() {
        // The §III-D3 story: fetch remote entries, analyze locally.
        let api = api();
        let client = MpClient::new(&api);
        let entries = client.get_entries_in_chemsys(&["Li", "O"]).unwrap();
        // Li, O, Li2O in-system; LiCoO2 and Fe2O3 excluded.
        assert_eq!(entries.len(), 3, "{entries:?}");
        let pd = mp_matsci::PhaseDiagram::new(entries).unwrap();
        let stable: Vec<String> = pd
            .stable_entries(1e-8)
            .iter()
            .map(|e| e.composition.reduced_formula())
            .collect();
        assert!(stable.contains(&"Li2O".to_string()), "{stable:?}");
    }

    #[test]
    fn query_projects_properties() {
        let api = api();
        let client = MpClient::new(&api);
        let rows = client
            .query(&json!({"band_gap": {"$gt": 1.0}}), &["formula", "band_gap"])
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.get("structure").is_none()));
    }

    #[test]
    fn api_errors_surface() {
        let api = api();
        let client = MpClient::new(&api);
        let err = client.get_materials("Zr9N9").unwrap_err();
        assert!(matches!(err, ClientError::Api { status: 404, .. }));
        let err = client.query(&json!({"$where": "x"}), &[]).unwrap_err();
        assert!(matches!(err, ClientError::Api { status: 400, .. }));
    }

    #[test]
    fn missing_structure_is_malformed() {
        let api = api();
        let client = MpClient::new(&api);
        let err = client.get_structure("mp-2").unwrap_err();
        assert!(matches!(err, ClientError::Malformed(_)));
    }
}
