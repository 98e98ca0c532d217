//! The QueryEngine abstraction layer (§III-B4, §IV-D1).
//!
//! "We have implemented an abstraction layer for queries and updates to
//! our main collections ... This layer allows us to install convenient
//! aliases for deeply nested fields or change the names of collections
//! in a single central place. ... Because all queries go through the
//! QueryEngine abstraction layer, all queries are sanitized and cannot
//! access the database directly."
//!
//! Reads go through a result cache whose entries ([`CachedRows`]) hold
//! handles to the stored documents a miss matched, the projection the
//! request asked for and, from the entry's first hit on, the one
//! response array all its hits share: from the probe to the response
//! body a hit copies `Arc`s, never documents. A miss answers with the
//! rows its scan pass built ([`Fetched::rows`]); the entry never owns a
//! copy of them.

use mp_docstore::{
    Collection, CompiledProjection, Database, Docs, FindOptions, Result, StoreError,
};
use mp_exec::{CacheStats, QueryCache};
use mp_lint::{CollectionSchema, Diagnostic};
use mp_sync::{LockRank, OrderedMutex};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// How many documents schema inference samples per collection.
const SCHEMA_SAMPLE: usize = 256;

/// How many distinct query shapes the read-through cache retains.
const QUERY_CACHE_CAPACITY: usize = 256;

/// Serialize a JSON value with object keys sorted recursively, so that
/// `{"a":1,"b":2}` and `{"b":2,"a":1}` produce the same cache key (the
/// workspace `serde_json` preserves insertion order, which would
/// otherwise split identical filters into distinct keys).
fn canonical_json(v: &Value, out: &mut String) {
    match v {
        Value::Object(m) => {
            let mut pairs: Vec<(&String, &Value)> = m.iter().collect();
            pairs.sort_unstable_by_key(|(k, _)| *k);
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_string(k, out);
                out.push(':');
                canonical_json(v, out);
            }
            out.push('}');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                canonical_json(item, out);
            }
            out.push(']');
        }
        other => {
            use std::fmt::Write as _;
            // serde_json's `Display` serializes straight into the
            // formatter — no intermediate `String` per leaf. This runs
            // on the cache-hit path, where a handful of cold small
            // allocations used to cost more than the probe itself.
            let _ = write!(out, "{other}");
        }
    }
}

/// JSON-escape `s` into `out` without allocating (key emission for
/// [`canonical_json`]; only self-consistency matters for a cache key,
/// but the escapes match serde_json's for readability in debug dumps).
fn push_json_string(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One cached result: handles to the stored documents a miss matched,
/// how to project them, and, once the entry has been hit, the response
/// array every later hit shares.
///
/// The handles are into the store whether or not the request projects:
/// a projected entry keeps the source documents and the compiled
/// projection, not projected copies, so it costs 8 bytes per row, pins
/// nothing the store does not hold anyway (an old version of a document
/// only until the probe that invalidates the entry or the put that
/// evicts it), and evicting it drops reference counts instead of
/// freeing rows inside someone else's request. Handles are immutable,
/// so whenever the rows are rendered they are the snapshot the miss
/// scanned.
///
/// The array is built by the *first hit*, not by the miss that stores
/// the entry: an entry that is never asked for twice (an exploratory
/// scan, a bulk pull) costs the handles alone, and its one response is
/// the caller's private rows, freed when the caller drops them rather
/// than whenever the cache evicts (DESIGN §9, "Entry shape").
#[derive(Debug)]
pub struct CachedRows {
    docs: Docs,
    /// Compiled once, by the miss; `None` when the request asked for
    /// whole documents.
    projection: Option<Arc<CompiledProjection>>,
    array: OnceLock<Arc<Value>>,
}

impl CachedRows {
    fn new(docs: Docs, projection: Option<Arc<CompiledProjection>>) -> Self {
        CachedRows {
            docs,
            projection,
            array: OnceLock::new(),
        }
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the query matched nothing.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The result rows as shared documents: the store's own handles
    /// when the request asked for whole documents, one freshly projected
    /// document per row otherwise.
    pub fn to_docs(&self) -> Docs {
        match &self.projection {
            Some(proj) => self
                .docs
                .iter()
                .map(|d| Arc::new(proj.project_one(d)))
                .collect(),
            None => self.docs.clone(),
        }
    }

    /// Materialize the rows into an owned JSON array. This is the
    /// serialization boundary: a response body must own its bytes, so a
    /// projected row is projected out of its document here and a whole
    /// document deep-copied — the one place on the read path that
    /// happens. An unprojected miss calls it for its private response,
    /// [`shared_json`] once per entry.
    ///
    /// [`shared_json`]: Self::shared_json
    pub fn to_json(&self) -> Value {
        Value::Array(match &self.projection {
            Some(proj) => self.docs.iter().map(|d| proj.project_one(d)).collect(),
            None => self.docs.iter().map(|d| (**d).clone()).collect(), // mp-lint: allow(P002)
        })
    }

    /// The response array of this entry, shared: the first call builds
    /// it with [`to_json`](Self::to_json) — callers racing to be first
    /// wait on the cell and one copy is made — and every later call is a
    /// reference-count bump, whatever the row count.
    pub fn shared_json(&self) -> Arc<Value> {
        Arc::clone(self.array.get_or_init(|| Arc::new(self.to_json())))
    }
}

/// What [`QueryEngine::query_cached`] answers with.
#[derive(Debug)]
pub struct Fetched {
    /// The cache entry: the one the probe found, or the one this call
    /// stored.
    pub entry: Arc<CachedRows>,
    /// Whether the probe found it.
    pub cached: bool,
    /// A projected miss's rows, exactly as the scan pass that matched
    /// them built them: the caller's to send, not a copy of anything the
    /// entry holds. `None` on a hit (the entry's shared array answers)
    /// and on an unprojected miss (its rows are the entry's documents).
    pub rows: Option<Vec<Value>>,
}

/// Central query gateway with aliasing and sanitization.
pub struct QueryEngine {
    db: Database,
    /// alias → real dotted path.
    field_aliases: BTreeMap<String, String>,
    /// logical name → real collection name.
    collection_aliases: BTreeMap<String, String>,
    /// Operators permitted in sanitized queries.
    allowed_operators: Vec<&'static str>,
    /// Maximum filter nesting depth.
    max_depth: usize,
    /// Read-through result cache, invalidated by collection version.
    /// Rows are shared `Arc<Document>` handles: a hit hands back the
    /// cached entry without copying a single document.
    cache: QueryCache<Arc<CachedRows>>,
    /// Each collection's inferred schema, with the write generation it
    /// was inferred at: [`lint_for`](Self::lint_for) samples a
    /// collection once per generation, not once per query.
    schemas: OrderedMutex<BTreeMap<String, (u64, Arc<CollectionSchema>)>>,
}

impl QueryEngine {
    /// Wrap a database with the Materials-Project default aliases.
    pub fn new(db: Database) -> Self {
        let mut field_aliases = BTreeMap::new();
        // The conveniences the production system installs.
        for (alias, real) in [
            ("energy", "output.energy"),
            ("energy_per_atom", "output.energy_per_atom"),
            ("band_gap", "output.band_gap"),
            ("formula", "formula"),
            ("nelements", "nelements"),
            ("elements", "elements"),
            ("chemsys", "chemsys"),
            ("e_above_hull", "stability.e_above_hull"),
            ("voltage", "average_voltage"),
            ("capacity", "capacity_grav"),
        ] {
            field_aliases.insert(alias.to_string(), real.to_string());
        }
        QueryEngine {
            db,
            field_aliases,
            collection_aliases: BTreeMap::new(),
            allowed_operators: vec![
                "$eq",
                "$ne",
                "$gt",
                "$gte",
                "$lt",
                "$lte",
                "$in",
                "$nin",
                "$all",
                "$size",
                "$exists",
                "$and",
                "$or",
                "$nor",
                "$not",
                "$elemMatch",
                "$regex",
                "$contains",
                "$mod",
                "$type",
            ],
            max_depth: 8,
            cache: QueryCache::new(QUERY_CACHE_CAPACITY),
            schemas: OrderedMutex::new(LockRank::LintSchemas, BTreeMap::new()),
        }
    }

    /// Install or change a field alias.
    ///
    /// Clears the result cache: cached entries are keyed on the *raw*
    /// request (see [`query_cached`](Self::query_cached)), and an alias
    /// edit changes what a raw request means.
    pub fn alias_field(&mut self, alias: &str, real: &str) {
        self.field_aliases.insert(alias.into(), real.into());
        self.cache.clear();
    }

    /// Install or change a collection alias. Clears the result cache
    /// (see [`alias_field`](Self::alias_field)).
    pub fn alias_collection(&mut self, alias: &str, real: &str) {
        self.collection_aliases.insert(alias.into(), real.into());
        self.cache.clear();
    }

    /// The underlying database (for trusted internal callers).
    pub fn database(&self) -> &Database {
        &self.db
    }

    fn resolve_collection<'a>(&'a self, name: &'a str) -> &'a str {
        self.collection_aliases
            .get(name)
            .map(String::as_str)
            .unwrap_or(name)
    }

    fn resolve_field<'a>(&'a self, name: &'a str) -> &'a str {
        self.field_aliases
            .get(name)
            .map(String::as_str)
            .unwrap_or(name)
    }

    /// Sanitize and alias-translate a raw (user-supplied) filter.
    ///
    /// Rejected: unknown `$` operators (`$where` most importantly),
    /// nesting beyond `max_depth`, non-object roots, and filters the
    /// static analyzer proves can never match (`mp-lint` Error-severity
    /// diagnostics: contradictory bounds, empty `$in`, …). Field names
    /// are passed through the alias table.
    pub fn sanitize(&self, raw: &Value) -> Result<Value> {
        let out = self.sanitize_level(raw, 0)?;
        let diags = mp_lint::analyze_query(&out);
        if mp_lint::has_errors(&diags) {
            return Err(StoreError::BadQuery(mp_lint::render(&diags)));
        }
        Ok(out)
    }

    /// Schema-aware lint of a raw filter against `collection`'s inferred
    /// schema: everything `sanitize` checks plus type mismatches, unknown
    /// fields with did-you-mean, unindexed-scan warnings, and forced-
    /// collection-scan shapes (`P001`) no index could ever serve.
    pub fn lint_for(&self, collection: &str, raw: &Value) -> Result<Vec<Diagnostic>> {
        let real_coll = self.resolve_collection(collection).to_string();
        let filter = self.sanitize_level(raw, 0)?;
        let schema = self.schema_of(&self.db.collection(&real_coll));
        let mut diags = mp_lint::analyze_query_with_schema(&filter, &schema, &self.field_aliases);
        diags.extend(mp_lint::analyze_query_perf(&filter, &schema));
        Ok(diags)
    }

    /// `coll`'s schema as [`CollectionSchema::infer`] finds it at the
    /// current write generation: the one inferred earlier in this
    /// generation, or a fresh inference, kept unless a write ended the
    /// generation while it ran. A `(name, generation)` pair never names
    /// two states, a dropped and re-created collection included.
    fn schema_of(&self, coll: &Collection) -> Arc<CollectionSchema> {
        let version = coll.version();
        if let Some((at, schema)) = self.schemas.lock().get(coll.name()) {
            if *at == version {
                return Arc::clone(schema);
            }
        }
        let schema = Arc::new(CollectionSchema::infer(coll, SCHEMA_SAMPLE));
        if coll.version() == version {
            let entry = (version, Arc::clone(&schema));
            self.schemas.lock().insert(coll.name().to_string(), entry);
        }
        schema
    }

    fn sanitize_level(&self, raw: &Value, depth: usize) -> Result<Value> {
        if depth > self.max_depth {
            return Err(StoreError::BadQuery(format!(
                "query nesting exceeds {}",
                self.max_depth
            )));
        }
        let obj = raw
            .as_object()
            .ok_or_else(|| StoreError::BadQuery("filter must be an object".into()))?;
        let mut out = Map::new();
        for (k, v) in obj {
            if k.starts_with('$') {
                if !self.allowed_operators.contains(&k.as_str()) {
                    return Err(StoreError::BadQuery(format!("operator {k} not permitted")));
                }
                // Logical operators take arrays of sub-filters.
                let sv = match v {
                    Value::Array(items) if matches!(k.as_str(), "$and" | "$or" | "$nor") => {
                        let subs: Result<Vec<Value>> = items
                            .iter()
                            .map(|i| self.sanitize_level(i, depth + 1))
                            .collect();
                        Value::Array(subs?)
                    }
                    Value::Object(_) if matches!(k.as_str(), "$not" | "$elemMatch") => {
                        self.sanitize_level(v, depth + 1)?
                    }
                    other => other.clone(),
                };
                out.insert(k.clone(), sv);
            } else {
                let real = self.resolve_field(k).to_string();
                let sv = if let Some(sub) = v.as_object() {
                    if sub.keys().any(|sk| sk.starts_with('$')) {
                        self.sanitize_level(v, depth + 1)?
                    } else {
                        v.clone()
                    }
                } else {
                    v.clone()
                };
                out.insert(real, sv);
            }
        }
        Ok(Value::Object(out))
    }

    /// Query a collection with criteria + requested properties, both in
    /// alias space — the pymatgen `MPRester.query(criteria, properties)`
    /// shape. Without properties the rows are the store's own handles
    /// (an `Arc` bump each, hit or miss). With properties each row is a
    /// projected document of its own: a miss wraps the rows its scan
    /// built, a hit re-projects them from the entry's handles — an
    /// in-process caller repeating a projected query pays the projection
    /// each time, not a copy of a cached one.
    pub fn query(
        &self,
        collection: &str,
        criteria: &Value,
        properties: &[&str],
        limit: Option<usize>,
    ) -> Result<Docs> {
        let fetched = self.query_cached(collection, criteria, properties, limit)?;
        Ok(match fetched.rows {
            Some(rows) => rows.into_iter().map(Arc::new).collect(),
            None => fetched.entry.to_docs(),
        })
    }

    /// Like [`query`](Self::query), but read-through the result cache:
    /// returns the (shared) cache entry, whether it was served from the
    /// cache, and — on a projected miss — the rows the scan built
    /// ([`Fetched`]). A cache hit is only possible while the backing
    /// collection's version counter is unchanged since the entry was
    /// stored — every write bumps it, so hits never serve pre-write
    /// data.
    ///
    /// The cache is keyed on the **raw** request — canonicalized
    /// criteria, property list, limit, collection name, all pre-alias,
    /// pre-sanitize — so the probe runs *before* sanitization. That is
    /// sound because an entry can only exist if an identical raw request
    /// previously passed sanitize and produced these rows (an alias edit
    /// changes what a raw request means, so alias installers clear the
    /// cache), and it is what makes hits O(1): sanitize rebuilds the
    /// filter object and walks it through the static analyzer on every
    /// call, allocation churn that used to scale a "hit" with the size
    /// of whatever scan ran before it. A hit now touches one small key
    /// buffer, one version load, and one cache probe — it clones one
    /// `Arc`, never documents, and never builds the entry's response
    /// array: that is [`CachedRows::shared_json`], which the REST layer
    /// calls on a hit, outside the cache's lock.
    ///
    /// A miss that projects compiles the projection once, runs the one
    /// pass that makes a handle and a row per match
    /// (`Collection::find_rows`), stores the handles with that same
    /// compiled projection and hands the rows back; one that does not
    /// stores the handles `find_with` returns, as it always has.
    pub fn query_cached(
        &self,
        collection: &str,
        criteria: &Value,
        properties: &[&str],
        limit: Option<usize>,
    ) -> Result<Fetched> {
        use std::fmt::Write as _;
        let mut key = String::with_capacity(96);
        key.push_str(collection);
        key.push('|');
        if let Some(l) = limit {
            let _ = write!(key, "{l}");
        }
        key.push('|');
        for p in properties {
            key.push_str(p);
            key.push(',');
        }
        key.push('|');
        canonical_json(criteria, &mut key);
        let real_coll = self.resolve_collection(collection);
        let coll = self.db.collection(real_coll);
        // Snapshot the version *before* running the query: a write
        // racing the scan can only make this entry stale (dropped on
        // the next probe), never let a hit serve pre-write rows as
        // current.
        let generation = coll.version();
        if let Some(entry) = self.cache.get(&key, generation) {
            return Ok(Fetched {
                entry,
                cached: true,
                rows: None,
            });
        }
        let filter = self.sanitize(criteria)?;
        let (entry, rows) = if properties.is_empty() {
            let opts = FindOptions {
                limit,
                ..FindOptions::all()
            };
            (CachedRows::new(coll.find_with(&filter, &opts)?, None), None)
        } else {
            let real_props: Vec<&str> = properties.iter().map(|p| self.resolve_field(p)).collect();
            let proj = Arc::new(CompiledProjection::compile(&real_props));
            let (docs, rows) = coll.find_rows(&filter, &proj, 0, limit)?;
            (CachedRows::new(docs, Some(proj)), Some(rows))
        };
        let entry = Arc::new(entry);
        self.cache.put(key, generation, Arc::clone(&entry));
        Ok(Fetched {
            entry,
            cached: false,
            rows,
        })
    }

    /// Hit/miss/invalidation/eviction counters of the query cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Explain a query through the abstraction layer: alias-resolve and
    /// sanitize the criteria, then report the collection's chosen access
    /// path, its cost and the considered alternatives, without running
    /// the scan.
    pub fn explain(&self, collection: &str, criteria: &Value) -> Result<Value> {
        let real = self.resolve_collection(collection).to_string();
        let filter = self.sanitize(criteria)?;
        self.db.collection(&real).explain(&filter)
    }

    /// Count documents matching sanitized criteria.
    pub fn count(&self, collection: &str, criteria: &Value) -> Result<usize> {
        let real = self.resolve_collection(collection).to_string();
        let filter = self.sanitize(criteria)?;
        self.db.collection(&real).count(&filter)
    }

    /// Sanitize a raw aggregation pipeline: every stage must be a
    /// single-operator object drawn from the stage whitelist, and every
    /// `$match` body passes the same [`sanitize`](Self::sanitize) gate
    /// as query filters (operator whitelist, depth bound, aliasing,
    /// static-analysis rejection) before it can reach `Filter::parse`.
    pub fn sanitize_pipeline(&self, raw: &Value) -> Result<Value> {
        const ALLOWED_STAGES: &[&str] = &[
            "$match", "$project", "$unwind", "$group", "$sort", "$limit", "$count",
        ];
        let arr = raw
            .as_array()
            .ok_or_else(|| StoreError::BadQuery("pipeline must be an array".into()))?;
        let mut out = Vec::with_capacity(arr.len());
        for st in arr {
            let obj = st
                .as_object()
                .ok_or_else(|| StoreError::BadQuery("stage must be an object".into()))?;
            if obj.len() != 1 {
                return Err(StoreError::BadQuery(
                    "each stage must have exactly one operator".into(),
                ));
            }
            let mut stage = Map::new();
            for (op, spec) in obj {
                if !ALLOWED_STAGES.contains(&op.as_str()) {
                    return Err(StoreError::BadQuery(format!("stage {op} not permitted")));
                }
                let spec = if op == "$match" {
                    self.sanitize(spec)?
                } else {
                    spec.clone()
                };
                stage.insert(op.clone(), spec);
            }
            out.push(Value::Object(stage));
        }
        Ok(Value::Array(out))
    }

    /// Run an aggregation pipeline through the abstraction layer. The
    /// collection name is alias-resolved and the pipeline passes
    /// [`sanitize_pipeline`](Self::sanitize_pipeline) — aggregation
    /// callers get the same "all queries go through the QueryEngine"
    /// guarantee as `query`/`count` instead of talking to the
    /// collection directly.
    pub fn aggregate(&self, collection: &str, pipeline: &Value) -> Result<Docs> {
        let real = self.resolve_collection(collection).to_string();
        let clean = self.sanitize_pipeline(pipeline)?;
        self.db.collection(&real).aggregate(&clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn engine() -> QueryEngine {
        let db = Database::new();
        let mats = db.collection("materials");
        mats.insert_many(vec![
            json!({"_id": "mp-1", "formula": "Fe2O3", "elements": ["Fe", "O"],
                   "output": {"energy": -67.5, "energy_per_atom": -6.75, "band_gap": 2.0}}),
            json!({"_id": "mp-2", "formula": "LiFePO4", "elements": ["Li", "Fe", "P", "O"],
                   "output": {"energy": -191.0, "energy_per_atom": -6.8, "band_gap": 3.5}}),
        ])
        .unwrap();
        QueryEngine::new(db)
    }

    #[test]
    fn aggregate_sanitizes_match_and_resolves_aliases() {
        let qe = engine();
        let out = qe
            .aggregate(
                "materials",
                &json!([
                    {"$match": {"band_gap": {"$gt": 1.0}}},
                    {"$group": {"_id": null, "n": {"$count": true}}},
                ]),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0]["n"], json!(2));
    }

    #[test]
    fn aggregate_rejects_where_inside_match() {
        let qe = engine();
        let err = qe.aggregate("materials", &json!([{"$match": {"$where": "evil()"}}]));
        assert!(matches!(err, Err(StoreError::BadQuery(_))), "{err:?}");
    }

    #[test]
    fn aggregate_rejects_unknown_stage() {
        let qe = engine();
        let err = qe.aggregate("materials", &json!([{"$merge": {"into": "other"}}]));
        assert!(matches!(err, Err(StoreError::BadQuery(_))), "{err:?}");
        let err = qe.aggregate("materials", &json!([{"$match": {}, "$limit": 1}]));
        assert!(matches!(err, Err(StoreError::BadQuery(_))), "two ops");
    }

    #[test]
    fn alias_translation_in_query() {
        let qe = engine();
        let hits = qe
            .query("materials", &json!({"band_gap": {"$gt": 3.0}}), &[], None)
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0]["formula"], "LiFePO4");
    }

    #[test]
    fn property_projection_uses_aliases() {
        let qe = engine();
        let hits = qe
            .query("materials", &json!({"formula": "Fe2O3"}), &["energy"], None)
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0]["output"]["energy"], json!(-67.5));
        assert!(hits[0].get("elements").is_none(), "projection drops others");
    }

    #[test]
    fn where_operator_rejected() {
        let qe = engine();
        let err = qe.query("materials", &json!({"$where": "evil()"}), &[], None);
        assert!(matches!(err, Err(StoreError::BadQuery(_))));
        let err = qe.query("materials", &json!({"f": {"$where": "x"}}), &[], None);
        assert!(matches!(err, Err(StoreError::BadQuery(_))));
    }

    #[test]
    fn deep_nesting_rejected() {
        let qe = engine();
        let mut q = json!({"a": 1});
        for _ in 0..12 {
            q = json!({ "$and": [q] });
        }
        assert!(qe.query("materials", &q, &[], None).is_err());
    }

    #[test]
    fn nested_logical_operators_sanitized_recursively() {
        let qe = engine();
        let q = json!({"$or": [{"band_gap": {"$gt": 3.0}}, {"formula": "Fe2O3"}]});
        let hits = qe.query("materials", &q, &[], None).unwrap();
        assert_eq!(hits.len(), 2);
        // And an evil operator hidden inside a $or is still caught.
        let evil = json!({"$or": [{"x": {"$where": "boom"}}]});
        assert!(qe.query("materials", &evil, &[], None).is_err());
    }

    #[test]
    fn collection_alias() {
        let mut qe = engine();
        qe.alias_collection("mats", "materials");
        assert_eq!(qe.count("mats", &json!({})).unwrap(), 2);
    }

    #[test]
    fn limit_respected() {
        let qe = engine();
        let hits = qe.query("materials", &json!({}), &[], Some(1)).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn non_object_filter_rejected() {
        let qe = engine();
        assert!(qe.query("materials", &json!([1, 2]), &[], None).is_err());
        assert!(qe.query("materials", &json!("str"), &[], None).is_err());
    }

    #[test]
    fn always_false_query_rejected_by_sanitize() {
        let qe = engine();
        let err = qe.query(
            "materials",
            &json!({"band_gap": {"$gt": 5, "$lt": 3}}),
            &[],
            None,
        );
        match err {
            Err(StoreError::BadQuery(msg)) => assert!(msg.contains("Q002"), "{msg}"),
            other => panic!("expected BadQuery(Q002), got {other:?}"),
        }
        let err = qe.query("materials", &json!({"formula": {"$in": []}}), &[], None);
        assert!(matches!(err, Err(StoreError::BadQuery(_))));
    }

    #[test]
    fn query_cache_hits_and_write_invalidation() {
        let qe = engine();
        let crit = json!({"band_gap": {"$gt": 1.0}});
        let first = qe.query_cached("materials", &crit, &[], None).unwrap();
        assert!(!first.cached, "first read is a miss");
        assert_eq!(first.entry.len(), 2);
        let second = qe.query_cached("materials", &crit, &[], None).unwrap();
        assert!(second.cached, "repeat read is a hit");
        assert!(
            Arc::ptr_eq(&first.entry, &second.entry),
            "hit shares the cached rows"
        );
        assert_eq!(qe.cache_stats().hits, 1);
        // A write to the collection bumps its version: the entry is
        // stale and the next read recomputes.
        qe.database()
            .collection("materials")
            .insert_one(json!({"formula": "NaCl", "output": {"band_gap": 5.0}}))
            .unwrap();
        let third = qe.query_cached("materials", &crit, &[], None).unwrap();
        assert!(!third.cached, "write must invalidate the cached entry");
        assert_eq!(third.entry.len(), 3);
        let st = qe.cache_stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.invalidations, 1);
    }

    #[test]
    fn query_returns_handles_whether_or_not_the_entry_was_hit() {
        let qe = engine();
        let crit = json!({"band_gap": {"$gt": 1.0}});
        let stored = qe
            .database()
            .collection("materials")
            .find(&json!({"output.band_gap": {"$gt": 1.0}}))
            .unwrap();
        assert_eq!(stored.len(), 2);
        let are_handles = |rows: &Docs| {
            rows.len() == stored.len() && rows.iter().zip(&stored).all(|(r, s)| Arc::ptr_eq(r, s))
        };
        // A miss, then a hit of an entry whose array nobody has built.
        assert!(are_handles(
            &qe.query("materials", &crit, &[], None).unwrap()
        ));
        assert!(are_handles(
            &qe.query("materials", &crit, &[], None).unwrap()
        ));
        // Build it, as a REST hit does: one array, equal to a private copy.
        let hit = qe.query_cached("materials", &crit, &[], None).unwrap();
        assert!(hit.cached && hit.rows.is_none());
        let array = hit.entry.shared_json();
        assert!(Arc::ptr_eq(&array, &hit.entry.shared_json()));
        assert_eq!(*array, hit.entry.to_json());
        // The entry still hands out the store's documents, not the array's.
        assert!(are_handles(&hit.entry.to_docs()));
        assert!(are_handles(
            &qe.query("materials", &crit, &[], None).unwrap()
        ));
        assert_eq!(qe.cache_stats().hits, 3);
    }

    /// A projected entry keeps the handles of the documents it matched
    /// and the projection; the miss hands out the rows its scan built,
    /// and everything rendered from the entry later equals them.
    #[test]
    fn a_projected_entry_holds_source_handles_and_the_miss_owns_its_rows() {
        let qe = engine();
        let crit = json!({"band_gap": {"$gt": 1.0}});
        let stored = qe
            .database()
            .collection("materials")
            .find(&json!({"output.band_gap": {"$gt": 1.0}}))
            .unwrap();
        let props = ["energy", "formula"];
        let miss = qe.query_cached("materials", &crit, &props, None).unwrap();
        assert!(!miss.cached);
        let rows = miss.rows.expect("a projected miss built its rows");
        assert_eq!(
            rows,
            [
                json!({"_id": "mp-1", "output": {"energy": -67.5}, "formula": "Fe2O3"}),
                json!({"_id": "mp-2", "output": {"energy": -191.0}, "formula": "LiFePO4"}),
            ]
        );
        assert!(miss
            .entry
            .docs
            .iter()
            .zip(&stored)
            .all(|(d, s)| Arc::ptr_eq(d, s)));
        let hit = qe.query_cached("materials", &crit, &props, None).unwrap();
        assert!(hit.cached && hit.rows.is_none());
        assert!(Arc::ptr_eq(&hit.entry, &miss.entry));
        assert_eq!(hit.entry.to_json(), Value::Array(rows.clone()));
        assert_eq!(*hit.entry.shared_json(), Value::Array(rows.clone()));
        // In process: a miss wraps its rows, a hit re-projects.
        let fresh = QueryEngine::new(qe.database().clone());
        for _ in 0..2 {
            let docs = fresh.query("materials", &crit, &props, None).unwrap();
            assert!(docs.iter().map(|d| &**d).eq(&rows));
        }
        assert_eq!(fresh.cache_stats().hits, 1);
    }

    #[test]
    fn drop_and_recreate_cannot_serve_stale_cached_rows() {
        let qe = engine();
        let crit = json!({"band_gap": {"$gt": 1.0}});
        let first = qe.query_cached("materials", &crit, &[], None).unwrap();
        assert_eq!(first.entry.len(), 2);
        // Drop the whole collection and rebuild it with one different
        // document. The successor collection seeds its generation above
        // the dropped one's final version (the registry floor), so the
        // cached (key, generation) pair can never alias the rebuilt
        // collection — a hit here would serve two dropped documents.
        assert!(qe.database().drop_collection("materials").unwrap());
        qe.database()
            .collection("materials")
            .insert_one(json!({"_id": "mp-9", "formula": "LiCoO2",
                               "output": {"band_gap": 2.7}}))
            .unwrap();
        let second = qe.query_cached("materials", &crit, &[], None).unwrap();
        assert!(
            !second.cached,
            "recreated collection must not serve the dropped collection's cached rows"
        );
        assert_eq!(second.entry.len(), 1);
        assert_eq!(second.entry.to_json()[0]["formula"], json!("LiCoO2"));
    }

    #[test]
    fn cache_key_is_order_insensitive() {
        let qe = engine();
        let a = json!({"band_gap": {"$gt": 1.0}, "formula": "Fe2O3"});
        let b = json!({"formula": "Fe2O3", "band_gap": {"$gt": 1.0}});
        let cached = |criteria: &Value, props: &[&str], limit| {
            let fetched = qe.query_cached("materials", criteria, props, limit);
            fetched.unwrap().cached
        };
        assert!(!cached(&a, &[], None));
        assert!(
            cached(&b, &[], None),
            "key-order permutations must share one cache slot"
        );
        // Projection and limit are part of the key, though.
        assert!(!cached(&a, &["energy"], None), "projection changes the key");
        assert!(!cached(&a, &[], Some(1)), "limit changes the key");
    }

    #[test]
    fn alias_edit_invalidates_raw_keyed_cache() {
        let mut qe = engine();
        let crit = json!({"band_gap": {"$gt": 1.0}});
        let first = qe.query_cached("materials", &crit, &[], None).unwrap();
        assert!(!first.cached);
        assert_eq!(first.entry.len(), 2);
        let second = qe.query_cached("materials", &crit, &[], None).unwrap();
        assert!(second.cached);
        // Repoint the alias: the same raw request now means a different
        // query, so the raw-keyed entry must not survive.
        qe.alias_field("band_gap", "no.such.path");
        let third = qe.query_cached("materials", &crit, &[], None).unwrap();
        assert!(!third.cached, "alias edit must clear raw-keyed entries");
        assert!(third.entry.is_empty(), "repointed alias matches nothing");
    }

    #[test]
    fn invalid_requests_are_never_cached_and_always_rejected() {
        let qe = engine();
        // A rejected query must be rejected again on the retry — the
        // probe-before-sanitize path can only hit entries stored by a
        // request that already passed sanitize.
        for _ in 0..2 {
            let err = qe.query_cached("materials", &json!({"$where": "evil()"}), &[], None);
            assert!(matches!(err, Err(StoreError::BadQuery(_))), "{err:?}");
        }
        assert_eq!(qe.cache_stats().hits, 0);
    }

    #[test]
    fn explain_reports_plan_and_no_exec_verdict() {
        let qe = engine();
        let ex = qe
            .explain("materials", &json!({"band_gap": {"$gt": 1.0}}))
            .unwrap();
        assert_eq!(ex["plan"], json!("COLLSCAN"));
        // Aliases resolved before planning.
        let paths = ex["filter_paths"].to_string();
        assert!(paths.contains("output.band_gap"), "{paths}");
        // Every scan runs on the caller: there is no executor verdict.
        assert!(ex.get("exec").is_none(), "{ex}");
        // And the sanitize gate still guards explain.
        assert!(qe.explain("materials", &json!({"$where": "x"})).is_err());
    }

    #[test]
    fn lint_for_reports_schema_findings() {
        let qe = engine();
        // Typo'd field: warned with a did-you-mean against aliases/schema.
        let diags = qe
            .lint_for("materials", &json!({"band_gapp": 2.0}))
            .unwrap();
        assert!(diags.iter().any(|d| d.code == "Q003"), "{diags:?}");
        // Type mismatch against the inferred schema is an error.
        let diags = qe
            .lint_for("materials", &json!({"formula": {"$gt": 3}}))
            .unwrap();
        assert!(mp_lint::has_errors(&diags), "{diags:?}");
        // A clean aliased query lints clean apart from the unindexed scan.
        let diags = qe
            .lint_for("materials", &json!({"band_gap": {"$gt": 2.0}}))
            .unwrap();
        assert!(diags.iter().all(|d| d.code == "Q004"), "{diags:?}");
    }

    /// `lint_for` infers a collection's schema once per write
    /// generation, and what it reports is what a schema inferred afresh
    /// reports: before and after a write that adds a field, and after
    /// an index appears.
    #[test]
    fn lint_for_infers_the_schema_once_per_generation() {
        let qe = engine();
        let filters = [
            json!({"band_gapp": 2.0}),
            json!({"formula": {"$gt": 3}}),
            json!({"band_gap": {"$gt": 2.0}}),
            json!({"formula": {"$regex": "Fe"}}),
            json!({"spacegroup": {"$gt": 3}}),
            json!({"spacegroup": "Pnma"}),
        ];
        let agrees_with_a_fresh_schema = |qe: &QueryEngine| {
            let coll = qe.database().collection("materials");
            let fresh = CollectionSchema::infer(&coll, SCHEMA_SAMPLE);
            for f in &filters {
                let filter = qe.sanitize_level(f, 0).unwrap();
                let mut want =
                    mp_lint::analyze_query_with_schema(&filter, &fresh, &qe.field_aliases);
                want.extend(mp_lint::analyze_query_perf(&filter, &fresh));
                assert_eq!(qe.lint_for("materials", f).unwrap(), want, "{f}");
            }
        };
        let cached = |qe: &QueryEngine| Arc::clone(&qe.schemas.lock()["materials"].1);
        agrees_with_a_fresh_schema(&qe);
        let first = cached(&qe);
        agrees_with_a_fresh_schema(&qe);
        assert!(
            Arc::ptr_eq(&first, &cached(&qe)),
            "inferred again in one generation"
        );

        let mats = qe.database().collection("materials");
        mats.insert_one(json!({"_id": "mp-3", "formula": "Si", "spacegroup": "Fd-3m"}))
            .unwrap();
        agrees_with_a_fresh_schema(&qe);
        let written = cached(&qe);
        assert!(
            !Arc::ptr_eq(&first, &written),
            "a write ends the generation"
        );
        assert!(mp_lint::has_errors(
            &qe.lint_for("materials", &json!({"spacegroup": {"$gt": 3}}))
                .unwrap()
        ));

        mats.create_index("output.band_gap", false).unwrap();
        agrees_with_a_fresh_schema(&qe);
        assert!(!Arc::ptr_eq(&written, &cached(&qe)), "so does an index");
        let diags = qe
            .lint_for("materials", &json!({"band_gap": {"$gt": 2.0}}))
            .unwrap();
        assert!(diags.is_empty(), "the index serves the range: {diags:?}");
    }

    #[test]
    fn lint_for_flags_forced_collscans() {
        let qe = engine();
        // No sargable predicate: no index could ever serve this.
        let diags = qe
            .lint_for("materials", &json!({"formula": {"$regex": "Fe"}}))
            .unwrap();
        assert!(diags.iter().any(|d| d.code == "P001"), "{diags:?}");
        // Sargable queries are Q004's territory at worst, never P001.
        let diags = qe
            .lint_for("materials", &json!({"formula": "Fe2O3"}))
            .unwrap();
        assert!(diags.iter().all(|d| d.code != "P001"), "{diags:?}");
    }
}
