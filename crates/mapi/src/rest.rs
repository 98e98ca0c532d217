//! The Materials API: REST-shaped programmatic access (§III-D2).
//!
//! URIs follow Fig. 4 of the paper:
//!
//! ```text
//! https://www.materialsproject.org/rest/v1/materials/Fe2O3/vasp/energy
//!         preamble              version  datatype  id    code property
//! ```
//!
//! Responses are a JSON envelope `{valid_response, response, ...}`. The
//! router is in-process (the substitution documented in DESIGN.md): a
//! request is a method + path + key, a response is a status + JSON body.
//!
//! Every route that returns rows answers through one function,
//! `ApiResponse::rows`. A query-cache **miss** owns its rows: a
//! projected one the rows its scan pass built, moved in and never
//! copied; an unprojected one the single deep copy of its documents —
//! the serialization boundary, [`CachedRows::to_json`] — and the caller
//! frees them when it drops the response. A **hit** copies nothing: the
//! first hit of an entry builds the entry's response array, every later
//! hit clones an `Arc` to it, so a hit costs the same for 1 row and for
//! 10,000. That is why an [`ApiResponse`] keeps its rows beside the
//! envelope rather than inside it: [`ApiResponse::payload`] borrows them
//! whoever owns them, and [`ApiResponse::body`] assembles the full
//! envelope for the callers that print or inspect it.
//!
//! [`CachedRows::to_json`]: crate::queryengine::CachedRows::to_json

use crate::auth::AuthRegistry;
use crate::error::ApiError;
use crate::queryengine::{Fetched, QueryEngine};
use crate::ratelimit::{RateLimitConfig, RateLimiter};
use crate::weblog::WebLog;
use serde_json::{json, Value};
use std::sync::Arc;
use std::time::Instant;

/// An API request.
#[derive(Debug, Clone)]
pub struct ApiRequest {
    /// Path, e.g. `/rest/v1/materials/Fe2O3/vasp/energy`.
    pub path: String,
    /// API key (None = anonymous, public data only, shared rate bucket).
    pub api_key: Option<String>,
    /// Simulated wall-clock (s) — drives rate limiting and the log.
    pub now: f64,
}

impl ApiRequest {
    /// Anonymous request at t=0.
    pub fn get(path: &str) -> Self {
        ApiRequest {
            path: path.into(),
            api_key: None,
            now: 0.0,
        }
    }

    /// Builder: set key.
    pub fn with_key(mut self, key: &str) -> Self {
        self.api_key = Some(key.into());
        self
    }

    /// Builder: set time.
    pub fn at(mut self, now: f64) -> Self {
        self.now = now;
        self
    }
}

/// The `response` member of an envelope: owned by this response (a
/// miss's private rows, a count, an error's `null`) or shared with the
/// query-cache entry it was served from and with every other hit of it.
#[derive(Debug, Clone)]
enum Payload {
    Owned(Value),
    Shared(Arc<Value>),
}

impl Payload {
    fn value(&self) -> &Value {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(v) => v,
        }
    }
}

/// Responses compare by what they say, not by who owns the rows.
impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.value() == other.value()
    }
}

/// An API response.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiResponse {
    /// HTTP-style status code.
    pub status: u16,
    /// The envelope; on a success its `response` member is left `null`
    /// and [`body`](Self::body) fills it in from `payload`, so a hit can
    /// carry rows it does not own.
    envelope: Value,
    payload: Payload,
    /// Response headers, e.g. `X-Cache: HIT`.
    pub headers: Vec<(String, String)>,
}

impl ApiResponse {
    fn ok(payload: Payload) -> Self {
        ApiResponse {
            status: 200,
            envelope: json!({
                "valid_response": true,
                "version": {"api": "v1", "db": "2012.08"},
                "response": null,
            }),
            payload,
            headers: Vec::new(),
        }
    }

    /// The one way a rows-returning route answers. A miss owns its
    /// rows, freed when the caller drops the response: the ones its scan
    /// pass built when it projects, a copy of its documents when it does
    /// not. A hit shares the entry's response array with every other hit
    /// of that entry, so its cost does not depend on the row count (why
    /// not build the array at miss time: DESIGN §9).
    fn rows(fetched: Fetched) -> Self {
        let (payload, x_cache) = if fetched.cached {
            (Payload::Shared(fetched.entry.shared_json()), "HIT")
        } else {
            let rows = match fetched.rows {
                Some(rows) => Value::Array(rows),
                None => fetched.entry.to_json(),
            };
            (Payload::Owned(rows), "MISS")
        };
        ApiResponse::ok(payload).with_header("X-Cache", x_cache)
    }

    /// Attach a response header.
    fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// First value of header `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Attach advisory lint findings (unindexed scans, unknown fields) to
    /// the envelope; the `warnings` key only appears when there are any.
    fn with_warnings(mut self, warnings: &[mp_lint::Diagnostic]) -> Self {
        if !warnings.is_empty() {
            let rendered: Vec<Value> = warnings
                .iter()
                .map(|d| Value::from(d.to_string()))
                .collect();
            self.envelope["warnings"] = Value::Array(rendered);
        }
        self
    }

    fn error(status: u16, msg: &str) -> Self {
        ApiResponse {
            status,
            envelope: json!({
                "valid_response": false,
                "error": msg,
            }),
            payload: Payload::Owned(Value::Null),
            headers: Vec::new(),
        }
    }

    /// The `response` payload (`null` on error).
    pub fn payload(&self) -> &Value {
        self.payload.value()
    }

    /// The payload by value: moved out when this response owns it (a
    /// miss), copied once when it is shared with the cache (a hit).
    pub fn into_payload(self) -> Value {
        match self.payload {
            Payload::Owned(v) => v,
            Payload::Shared(v) => Arc::unwrap_or_clone(v),
        }
    }

    /// The JSON body: the envelope `{valid_response, version, response,
    /// [warnings]}` (or `{valid_response, error}`) with the payload
    /// copied into its `response` member. For callers that print or
    /// inspect the whole body; [`payload`](Self::payload) borrows the
    /// rows without assembling anything.
    pub fn body(&self) -> Value {
        let mut body = self.envelope.clone();
        if let Some(response) = body.get_mut("response") {
            *response = self.payload().clone();
        }
        body
    }
}

impl From<ApiError> for ApiResponse {
    fn from(e: ApiError) -> Self {
        ApiResponse::error(e.status(), &e.to_string())
    }
}

/// The server: QueryEngine + auth + rate limiting + logging.
pub struct MaterialsApi {
    qe: QueryEngine,
    auth: AuthRegistry,
    limiter: RateLimiter,
    log: WebLog,
}

/// Properties servable under `/materials/{id}/vasp/...`.
const VASP_PROPERTIES: &[&str] = &[
    "energy",
    "energy_per_atom",
    "band_gap",
    "formula",
    "nsites",
    "density",
    "e_above_hull",
];

impl MaterialsApi {
    /// Build over a query engine.
    pub fn new(qe: QueryEngine, auth: AuthRegistry) -> Self {
        MaterialsApi {
            qe,
            auth,
            limiter: RateLimiter::new(RateLimitConfig::default()),
            log: WebLog::new(65_536),
        }
    }

    /// The web-query log (Fig. 5 data).
    pub fn weblog(&self) -> &WebLog {
        &self.log
    }

    /// The auth registry (for registration flows).
    pub fn auth(&self) -> &AuthRegistry {
        &self.auth
    }

    /// The underlying query engine.
    pub fn query_engine(&self) -> &QueryEngine {
        &self.qe
    }

    /// Authenticate (anonymous allowed) and rate limit. Auth failures
    /// degrade to 401 and exhausted buckets to 429 — never a panic.
    /// The bucket is the request's own key: accounts are keyed by it,
    /// so a known key is all there is to check, and nothing is copied.
    fn admit(&self, req: &ApiRequest) -> Result<(), ApiError> {
        let bucket_key = match &req.api_key {
            Some(k) if self.auth.knows(k) => k,
            Some(_) => return Err(ApiError::Unauthorized),
            None => "anonymous",
        };
        if !self.limiter.admit(bucket_key, req.now) {
            return Err(ApiError::RateLimited);
        }
        Ok(())
    }

    /// Handle one request.
    pub fn handle(&self, req: &ApiRequest) -> ApiResponse {
        let started = Instant::now();
        if let Err(e) = self.admit(req) {
            return e.into();
        }

        let resp = self.route(&req.path).unwrap_or_else(ApiResponse::from);
        let nrecords = match resp.payload() {
            Value::Array(a) => a.len(),
            Value::Null => 0,
            _ => 1,
        };
        let local_micros = started.elapsed().as_micros() as u64;
        self.log.record(req.now, &req.path, local_micros, nrecords);
        resp
    }

    fn route(&self, path: &str) -> Result<ApiResponse, ApiError> {
        let parts: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        // Expect ["rest", "v1", datatype, ...].
        match parts.as_slice() {
            ["rest", "v1", "materials", tail @ ..] => self.route_materials(tail),
            ["rest", "v1", "battery", tail @ ..] => self.route_battery(tail),
            ["rest", "v1", "tasks", tail @ ..] => self.route_tasks(tail),
            ["rest", "v1", other, ..] => {
                Err(ApiError::NotFound(format!("unknown datatype '{other}'")))
            }
            ["rest", version, _, ..] if *version != "v1" => {
                Err(ApiError::BadRequest("unsupported API version".into()))
            }
            _ => Err(ApiError::NotFound("not found".into())),
        }
    }

    /// Identifier → criteria: an `mp-` / `mps-` id, a chemical system
    /// (`Fe-Li-O-P`), or a formula (`Fe2O3`).
    fn identifier_criteria(ident: &str) -> Value {
        if ident.starts_with("mp-") || ident.starts_with("mps-") {
            json!({"_id": ident})
        } else if ident.contains('-') {
            json!({"chemsys": ident})
        } else {
            json!({"formula": ident})
        }
    }

    fn route_materials(&self, rest: &[&str]) -> Result<ApiResponse, ApiError> {
        match rest {
            [] => Err(ApiError::BadRequest("missing identifier".into())),
            [ident] => self.fetch("materials", ident, None),
            [ident, "vasp"] => self.fetch("materials", ident, None),
            [ident, "vasp", prop] => {
                if !VASP_PROPERTIES.contains(prop) {
                    return Err(ApiError::BadRequest(format!("unknown property '{prop}'")));
                }
                self.fetch("materials", ident, Some(prop))
            }
            _ => Err(ApiError::NotFound("not found".into())),
        }
    }

    fn route_battery(&self, rest: &[&str]) -> Result<ApiResponse, ApiError> {
        match rest {
            [] => Err(ApiError::BadRequest("missing identifier".into())),
            [ident] => {
                let criteria = if ident.starts_with("bat-") {
                    json!({"_id": ident})
                } else {
                    json!({"framework": ident})
                };
                let fetched = self
                    .qe
                    .query_cached("batteries", &criteria, &[], Some(100))?;
                Ok(ApiResponse::rows(fetched))
            }
            _ => Err(ApiError::NotFound("not found".into())),
        }
    }

    fn route_tasks(&self, rest: &[&str]) -> Result<ApiResponse, ApiError> {
        // Tasks are internal: only counts are exposed.
        match rest {
            ["count"] => {
                let n = self.qe.count("tasks", &json!({}))?;
                Ok(ApiResponse::ok(Payload::Owned(json!({ "count": n }))))
            }
            _ => Err(ApiError::Forbidden("tasks are not public".into())),
        }
    }

    fn fetch(
        &self,
        collection: &str,
        ident: &str,
        prop: Option<&str>,
    ) -> Result<ApiResponse, ApiError> {
        let criteria = Self::identifier_criteria(ident);
        let props: Vec<&str> = match prop {
            Some(p) => vec![p],
            None => vec![],
        };
        let fetched = self
            .qe
            .query_cached(collection, &criteria, &props, Some(500))?;
        if fetched.entry.is_empty() {
            return Err(ApiError::NotFound(format!(
                "no {collection} match '{ident}'"
            )));
        }
        Ok(ApiResponse::rows(fetched))
    }

    /// POST-style structured query: sanitized criteria + properties
    /// (what pymatgen's `MPRester.query` calls).
    pub fn structured_query(
        &self,
        req: &ApiRequest,
        collection: &str,
        criteria: &Value,
        properties: &[&str],
    ) -> ApiResponse {
        let started = Instant::now();
        if let Err(e) = self.admit(req) {
            return e.into();
        }
        // The schema-aware lint's warnings ride along in the envelope; a
        // filter is refused by `query_cached`'s sanitize, as on every route.
        let warnings = self.qe.lint_for(collection, criteria).unwrap_or_default();
        let resp = match self
            .qe
            .query_cached(collection, criteria, properties, Some(10_000))
        {
            Ok(fetched) => ApiResponse::rows(fetched).with_warnings(&warnings),
            Err(e) => ApiResponse::error(400, &e.to_string()),
        };
        let nrecords = match resp.payload() {
            Value::Array(a) => a.len(),
            _ => 0,
        };
        self.log.record(
            req.now,
            &format!("POST /query/{collection}"),
            started.elapsed().as_micros() as u64,
            nrecords,
        );
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_docstore::Database;

    fn api() -> MaterialsApi {
        let db = Database::new();
        db.collection("materials")
            .insert_many(vec![
                json!({"_id": "mp-1", "formula": "Fe2O3", "chemsys": "Fe-O",
                       "elements": ["Fe", "O"], "nsites": 10, "density": 5.2,
                       "output": {"energy": -67.5, "energy_per_atom": -6.75, "band_gap": 2.0}}),
                json!({"_id": "mp-2", "formula": "LiCoO2", "chemsys": "Co-Li-O",
                       "elements": ["Li", "Co", "O"], "nsites": 4, "density": 4.9,
                       "output": {"energy": -22.9, "energy_per_atom": -5.7, "band_gap": 2.7}}),
            ])
            .unwrap();
        db.collection("batteries")
            .insert_one(
                json!({"_id": "bat-1", "framework": "CoO2", "working_ion": "Li",
                               "average_voltage": 3.9, "capacity_grav": 274.0}),
            )
            .unwrap();
        MaterialsApi::new(QueryEngine::new(db), AuthRegistry::new())
    }

    #[test]
    fn fig4_uri_returns_energy() {
        // The exact example from Fig. 4 of the paper.
        let api = api();
        let resp = api.handle(&ApiRequest::get("/rest/v1/materials/Fe2O3/vasp/energy"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body()["valid_response"], true);
        let docs = resp.payload().as_array().unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0]["output"]["energy"], json!(-67.5));
    }

    #[test]
    fn lookup_by_mp_id_and_chemsys() {
        let api = api();
        let by_id = api.handle(&ApiRequest::get("/rest/v1/materials/mp-2"));
        assert_eq!(by_id.status, 200);
        assert_eq!(by_id.payload()[0]["formula"], "LiCoO2");

        let by_sys = api.handle(&ApiRequest::get("/rest/v1/materials/Co-Li-O"));
        assert_eq!(by_sys.status, 200);
        assert_eq!(by_sys.payload()[0]["_id"], "mp-2");
    }

    #[test]
    fn unknown_material_404() {
        let api = api();
        let resp = api.handle(&ApiRequest::get("/rest/v1/materials/Zr3N4/vasp/energy"));
        assert_eq!(resp.status, 404);
        assert_eq!(resp.body()["valid_response"], false);
    }

    #[test]
    fn unknown_property_400() {
        let api = api();
        let resp = api.handle(&ApiRequest::get("/rest/v1/materials/Fe2O3/vasp/secrets"));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn bad_version_and_path() {
        let api = api();
        assert_eq!(
            api.handle(&ApiRequest::get("/rest/v9/materials/Fe2O3"))
                .status,
            400
        );
        assert_eq!(api.handle(&ApiRequest::get("/nope")).status, 404);
        assert_eq!(
            api.handle(&ApiRequest::get("/rest/v1/genomes/x")).status,
            404
        );
    }

    #[test]
    fn battery_route() {
        let api = api();
        let resp = api.handle(&ApiRequest::get("/rest/v1/battery/CoO2"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.payload()[0]["average_voltage"], json!(3.9));
        let by_id = api.handle(&ApiRequest::get("/rest/v1/battery/bat-1"));
        assert_eq!(by_id.status, 200);
    }

    #[test]
    fn tasks_not_public() {
        let api = api();
        assert_eq!(
            api.handle(&ApiRequest::get("/rest/v1/tasks/task-1")).status,
            403
        );
        assert_eq!(
            api.handle(&ApiRequest::get("/rest/v1/tasks/count")).status,
            200
        );
    }

    #[test]
    fn unknown_key_401() {
        let api = api();
        let resp = api.handle(&ApiRequest::get("/rest/v1/materials/Fe2O3").with_key("mpk-fake"));
        assert_eq!(resp.status, 401);
    }

    #[test]
    fn registered_key_works() {
        let api = api();
        let acct = api
            .auth()
            .register(&crate::auth::ProviderAssertion {
                provider: crate::auth::Provider::Google,
                email: "sci@example.com".into(),
                signature: crate::auth::sign("sci@example.com"),
            })
            .unwrap();
        let resp = api.handle(&ApiRequest::get("/rest/v1/materials/Fe2O3").with_key(&acct.api_key));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn anonymous_rate_limited() {
        let api = api();
        let mut throttled = false;
        for _ in 0..100 {
            let resp = api.handle(&ApiRequest::get("/rest/v1/materials/Fe2O3").at(0.0));
            if resp.status == 429 {
                throttled = true;
                break;
            }
        }
        assert!(throttled, "anonymous burst should hit the limiter");
    }

    #[test]
    fn structured_query_sanitizes() {
        let api = api();
        let ok = api.structured_query(
            &ApiRequest::get("/query"),
            "materials",
            &json!({"band_gap": {"$gt": 2.5}}),
            &["formula"],
        );
        assert_eq!(ok.status, 200);
        assert_eq!(ok.payload().as_array().unwrap().len(), 1);

        let evil = api.structured_query(
            &ApiRequest::get("/query").at(1.0),
            "materials",
            &json!({"$where": "drop()"}),
            &[],
        );
        assert_eq!(evil.status, 400);
    }

    #[test]
    fn structured_query_surfaces_lint_diagnostics() {
        let api = api();
        // A filter no document can match is refused with the diagnostic
        // rendered into the error body.
        for (i, f) in [
            json!({"band_gap": {"$in": []}}),
            json!({"$and": [{"elements": {"$size": 1}}, {"elements": {"$size": 2}}]}),
        ]
        .into_iter()
        .enumerate()
        {
            let req = ApiRequest::get("/query").at(i as f64);
            let resp = api.structured_query(&req, "materials", &f, &[]);
            assert_eq!(resp.status, 400, "{f}");
            let body = resp.body();
            assert!(body["error"].as_str().unwrap().contains("Q002"), "{body}");
        }

        // An unindexed scan succeeds but carries a warning in the envelope,
        // and so does a type mismatch with the sampled documents.
        for (f, code, rows) in [
            (json!({"band_gap": {"$gt": 2.5}}), "Q004", 1),
            (json!({"formula": {"$ne": 3}}), "Q001", 2),
        ] {
            let ok =
                api.structured_query(&ApiRequest::get("/query").at(10.0), "materials", &f, &[]);
            assert_eq!(ok.status, 200);
            assert_eq!(ok.payload().as_array().unwrap().len(), rows);
            let body = ok.body();
            let warnings = body["warnings"].as_array().expect("warnings surfaced");
            assert!(
                warnings
                    .iter()
                    .any(|w| w.as_str().unwrap_or("").contains(code)),
                "{warnings:?}"
            );
        }
    }

    /// Filters some stored document matches are served with the store's
    /// rows, through `structured_query` and `QueryEngine::query` alike:
    /// the operators of one path are tested on their own against every
    /// value it reaches, and a `$or`/`$nor` branch that matches nothing
    /// leaves the filter alive.
    #[test]
    fn filters_a_document_matches_are_never_refused() {
        let api = api();
        let coll = api.query_engine().database().collection("probe");
        coll.insert_many(vec![
            json!({"_id": 0, "a": [1, 10]}),
            json!({"_id": 1, "a": [5, 6]}),
            json!({"_id": 2, "a": [10, 1]}),
            json!({"_id": 3, "a": [2, "a"]}),
            json!({"_id": 4, "b": 1}),
        ])
        .unwrap();
        for (i, f) in [
            json!({"a": {"$gt": 5, "$lt": 3}}),
            json!({"a": 5, "$and": [{"a": 6}]}),
            json!({"a": {"$eq": 10, "$lt": 5}}),
            json!({"a": {"$gt": 1, "$lt": "x"}}),
            json!({"a": {"$exists": false, "$ne": 5}}),
            json!({"a": {"$exists": false, "$nin": [5]}}),
            json!({"a": {"$exists": false, "$not": {"$gt": 5}}}),
            json!({"$nor": [{"a": {"$in": []}}]}),
            json!({"$or": [{"a": {"$in": []}}, {"b": 1}]}),
        ]
        .into_iter()
        .enumerate()
        {
            let stored = coll.find(&f).unwrap();
            assert!(!stored.is_empty(), "{f}");
            let req = ApiRequest::get("/query").at(i as f64 * 10.0);
            let resp = api.structured_query(&req, "probe", &f, &[]);
            assert_eq!(resp.status, 200, "{f}: {:?}", resp.body());
            let rows = resp.payload().as_array().unwrap();
            assert!(rows.iter().eq(stored.iter().map(|d| &**d)), "{f}");
            let docs = api.query_engine().query("probe", &f, &[], None).unwrap();
            assert!(
                docs.iter().map(|d| &**d).eq(stored.iter().map(|d| &**d)),
                "{f}"
            );
        }
    }

    #[test]
    fn x_cache_header_reports_hit_miss_and_invalidation() {
        let api = api();
        let r1 = api.handle(&ApiRequest::get("/rest/v1/materials/Fe2O3"));
        assert_eq!(r1.header("X-Cache"), Some("MISS"));
        let r2 = api.handle(&ApiRequest::get("/rest/v1/materials/Fe2O3").at(10.0));
        assert_eq!(r2.header("X-Cache"), Some("HIT"));
        assert_eq!(r1.payload(), r2.payload(), "hit serves identical rows");
        // A write bumps the collection version: the entry is stale.
        api.query_engine()
            .database()
            .collection("materials")
            .insert_one(json!({"_id": "mp-9", "formula": "TiO2"}))
            .unwrap();
        let r3 = api.handle(&ApiRequest::get("/rest/v1/materials/Fe2O3").at(20.0));
        assert_eq!(r3.header("X-Cache"), Some("MISS"));
    }

    #[test]
    fn body_is_the_same_envelope_whoever_owns_the_rows() {
        let api = api();
        let keys = |resp: &ApiResponse| -> Vec<String> {
            resp.body().as_object().unwrap().keys().cloned().collect()
        };
        let miss = api.handle(&ApiRequest::get("/rest/v1/battery/CoO2"));
        let hit = api.handle(&ApiRequest::get("/rest/v1/battery/CoO2").at(10.0));
        assert_eq!(miss.header("X-Cache"), Some("MISS"));
        assert_eq!(hit.header("X-Cache"), Some("HIT"));
        for resp in [&miss, &hit] {
            assert_eq!(
                resp.body().to_string(),
                r#"{"valid_response":true,"version":{"api":"v1","db":"2012.08"},"response":[{"_id":"bat-1","framework":"CoO2","working_ion":"Li","average_voltage":3.9,"capacity_grav":274.0}]}"#
            );
        }
        // Warnings follow the rows; an error has no `response` member.
        let warned = api.structured_query(
            &ApiRequest::get("/query").at(20.0),
            "materials",
            &json!({"band_gap": {"$gt": 2.5}}),
            &[],
        );
        assert_eq!(
            keys(&warned),
            ["valid_response", "version", "response", "warnings"]
        );
        assert_eq!(warned.body()["response"], *warned.payload());
        let missing = api.handle(&ApiRequest::get("/rest/v1/materials/Zr3N4").at(30.0));
        assert_eq!(keys(&missing), ["valid_response", "error"]);
        assert_eq!(*missing.payload(), Value::Null);
        // A non-row payload is carried the same way.
        let count = api.handle(&ApiRequest::get("/rest/v1/tasks/count").at(40.0));
        assert_eq!(count.body()["response"], json!({"count": 0}));
        assert_eq!(count.clone().into_payload(), json!({"count": 0}));
        assert_eq!(hit.clone().into_payload(), *miss.payload());
    }

    #[test]
    fn weblog_captures_queries() {
        let api = api();
        for i in 0..5 {
            api.handle(&ApiRequest::get("/rest/v1/materials/Fe2O3").at(i as f64 * 10.0));
        }
        assert_eq!(api.weblog().entries().len(), 5);
        assert!(api.weblog().total_records() >= 5);
    }
}
