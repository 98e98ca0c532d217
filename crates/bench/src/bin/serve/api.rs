//! The served deployment the three API workloads share: `materials`
//! loaded and indexed, 64 registered keys, a `MaterialsApi` on top —
//! and the client that issues generated requests and checks each
//! response against the oracle.

use crate::corpus::{Class, Corpus, Request};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Config, Outcome};
use mp_docstore::{Database, FindOptions};
use mp_exec::{CacheStats, PoolStats, WorkPool};
use mp_mapi::auth::{sign, Provider, ProviderAssertion};
use mp_mapi::{
    ApiRequest, ApiResponse, AuthRegistry, MaterialsApi, QueryEngine, RateLimitConfig, RateLimiter,
    WebLog,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Registered API keys; anonymous traffic rides along as a 65th caller.
pub const KEYS: usize = 64;

/// One response in this many is compared field by field with the
/// oracle's payload; status and row count are checked on all of them.
pub const FULL_CHECK_EVERY: u64 = 1024;

/// `WebLog::new` capacity in `MaterialsApi::new`. Past it every
/// `record` shifts the whole ring (3.7 MB of `memmove`).
pub const WEBLOG_CAPACITY: usize = 65_536;

/// Requests one `MaterialsApi` serves before the deployment recycles
/// it (a fresh one over the same database), as a web tier that restarts
/// its workers on a request budget does: three quarters of
/// [`WEBLOG_CAPACITY`]. The request stream is not touched by it. Without
/// recycling the ring fills within the first second of `portal_hot` and
/// `ingest_mixed` and every later request measures the shift of the
/// ring and nothing else, unsteadily (README, "API recycling"); that
/// cost is reported as `mapi.weblog_record_full_ns`.
pub const RECYCLE_AFTER: u64 = 49_152;

fn register_keys(auth: &AuthRegistry) -> Vec<Option<String>> {
    let mut keys: Vec<Option<String>> = (0..KEYS)
        .map(|i| {
            let email = format!("user{i}@example.org");
            let account = auth
                .register(&ProviderAssertion {
                    provider: Provider::Google,
                    signature: sign(&email),
                    email,
                })
                .expect("assertion is correctly signed");
            Some(account.api_key)
        })
        .collect();
    keys.push(None);
    keys
}

/// Create the indexes every consumer filters on, then load the corpus.
pub fn load_materials(db: &Database, docs: Vec<Value>) {
    let materials = db.collection("materials");
    materials
        .create_index("chemsys", false)
        .expect("fresh index");
    materials
        .create_index("formula", false)
        .expect("fresh index");
    materials
        .insert_many(docs)
        .expect("generated ids are unique");
}

pub struct Deployment {
    pub api: MaterialsApi,
    pub db: Database,
    /// The 64 registered keys, then `None` for anonymous.
    pub keys: Vec<Option<String>>,
}

impl Deployment {
    /// Serve `db` (already loaded).
    pub fn over(db: Database) -> Deployment {
        let auth = AuthRegistry::new();
        let keys = register_keys(&auth);
        Deployment {
            api: MaterialsApi::new(QueryEngine::new(db.clone()), auth),
            db,
            keys,
        }
    }

    /// A client using every `stride`-th caller starting at `lane`, so
    /// concurrent clients never share a key (and so never race its
    /// simulated clock). Its responses are checked against `corpus`.
    pub fn client<'a>(&'a self, corpus: &'a Corpus, lane: usize, stride: usize) -> Client<'a> {
        Client {
            api: &self.api,
            corpus,
            ignore: None,
            keys: self
                .keys
                .iter()
                .skip(lane)
                .step_by(stride)
                .cloned()
                .collect(),
            sent: 0,
        }
    }
}

/// A closed-loop caller with its own keys and simulated clock.
pub struct Client<'a> {
    api: &'a MaterialsApi,
    corpus: &'a Corpus,
    /// A payload field a concurrent writer owns; the oracle skips it.
    ignore: Option<&'static str>,
    keys: Vec<Option<String>>,
    sent: u64,
}

impl Client<'_> {
    pub fn ignoring(mut self, field: &'static str) -> Self {
        self.ignore = Some(field);
        self
    }

    /// The next envelope: keys rotate, and the clock advances one second
    /// per request, so each key's token bucket refills faster than this
    /// client drains it and every request is admitted.
    fn envelope(&mut self, path: &str) -> ApiRequest {
        self.sent += 1;
        ApiRequest {
            path: path.to_string(),
            api_key: self.keys[(self.sent % self.keys.len() as u64) as usize].clone(),
            now: self.sent as f64,
        }
    }

    /// Issue `req`; returns the response and its latency in ns.
    pub fn issue(&mut self, req: &Request) -> (ApiResponse, u64) {
        let envelope = self.envelope(req.path.as_deref().unwrap_or("/query"));
        let t = Instant::now();
        let resp = match &req.path {
            Some(_) => self.api.handle(&envelope),
            None => self
                .api
                .structured_query(&envelope, "materials", &req.criteria, &req.props),
        };
        (resp, t.elapsed().as_nanos() as u64)
    }
}

/// Layer tracing state of one traced client: of each class, one
/// request in `every(class)` is traced and replayed against the twins.
pub struct Tracing {
    pub tracer: Tracer,
    pub twins: Twins,
    every: fn(Class) -> u64,
    seen: BTreeMap<Class, u64>,
    /// The traced requests, booked apart from the untraced ones.
    pub tally: Tally,
    pub facts: Vec<(Class, LayerFacts)>,
}

impl Tracing {
    pub fn new(twins: Twins, every: fn(Class) -> u64) -> Tracing {
        Tracing {
            tracer: Tracer::new(),
            twins,
            every,
            seen: BTreeMap::new(),
            tally: Tally::default(),
            facts: Vec::new(),
        }
    }
}

impl Client<'_> {
    /// The `i`-th request of a client loop: issue, check, book — and on
    /// the traced ones, record the root span and probe the twins.
    pub fn step(
        &mut self,
        req: &Request,
        i: u64,
        tally: &mut Tally,
        tracing: Option<&mut Tracing>,
    ) {
        let (corpus, ignore) = (self.corpus, self.ignore);
        let traced = tracing.and_then(|tr| {
            let seen = tr.seen.entry(req.class).or_default();
            *seen += 1;
            let every = (tr.every)(req.class);
            (*seen % every == 1 % every).then_some(tr)
        });
        match traced {
            Some(tr) => {
                let root_name = if req.path.is_some() {
                    "api.handle"
                } else {
                    "api.structured_query"
                };
                let (root, (resp, ns)) =
                    tr.tracer
                        .span(root_name, req.class.name(), i, None, || self.issue(req));
                tr.tally.book(corpus, req, &resp, ns, ignore);
                let hit = resp.header("X-Cache") == Some("HIT");
                let facts = tr.twins.probe(&mut tr.tracer, root, i, req, hit);
                // A probe that errs timed something other than the layer.
                tr.tally.attempted += facts.probe_errors;
                tr.tally.failed += facts.probe_errors;
                tr.facts.push((req.class, facts));
            }
            None => {
                let (resp, ns) = self.issue(req);
                tally.book(corpus, req, &resp, ns, ignore);
            }
        }
    }
}

/// Outcome counters and latency samples of one client.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Sum of payload lengths: repeats exactly for a fixed request count.
    pub records: u64,
    pub all: Samples,
    pub by_class: BTreeMap<Class, Samples>,
}

impl Tally {
    /// Check `resp` against the oracle and book the request. `ignore`
    /// names a field a concurrent writer owns.
    pub fn book(
        &mut self,
        corpus: &Corpus,
        req: &Request,
        resp: &ApiResponse,
        ns: u64,
        ignore: Option<&str>,
    ) {
        self.attempted += 1;
        let full = self.attempted % FULL_CHECK_EVERY == 1;
        if resp.status == 200 && req.expect.check(corpus, resp.payload(), full, ignore) {
            self.records += req.expect.rows() as u64;
            self.all.push(ns);
            self.by_class.entry(req.class).or_default().push(ns);
        } else {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.records += other.records;
        self.all.extend(&other.all);
        for (class, samples) in &other.by_class {
            self.by_class.entry(*class).or_default().extend(samples);
        }
    }
}

/// Twin instances the traced replay probes, so each inner public
/// function is timed on the same arguments without disturbing the
/// deployment under load.
pub struct Twins {
    auth: AuthRegistry,
    keys: Vec<Option<String>>,
    limiter: RateLimiter,
    weblog: WebLog,
    /// Shares the deployment's database: reads only.
    db: Database,
    /// Engine whose cache holds every key probed so far (hit path).
    primed: QueryEngine,
    probes: u64,
}

impl Twins {
    pub fn new(db: &Database) -> Twins {
        let auth = AuthRegistry::new();
        let keys = register_keys(&auth);
        Twins {
            auth,
            keys,
            limiter: RateLimiter::new(RateLimitConfig::default()),
            weblog: WebLog::new(WEBLOG_CAPACITY),
            db: db.clone(),
            primed: QueryEngine::new(db.clone()),
            probes: 0,
        }
    }

    /// Replay `req` layer by layer under `root`, the span of the real
    /// call. `hit` says the real call was served from the query cache.
    pub fn probe(
        &mut self,
        tracer: &mut Tracer,
        root: u32,
        id: u64,
        req: &Request,
        hit: bool,
    ) -> LayerFacts {
        self.probes += 1;
        let class = req.class.name();
        let key = self.keys[(self.probes % self.keys.len() as u64) as usize].clone();
        let now = self.probes as f64;
        tracer.span("mapi.admit", class, id, Some(root), || {
            let bucket = match &key {
                Some(k) => self
                    .auth
                    .authenticate(k)
                    .map(|a| a.api_key)
                    .unwrap_or_default(),
                None => "anonymous".to_string(),
            };
            self.limiter.admit(&bucket, now)
        });
        let (criteria, props, limit) = (&req.criteria, &req.props, req.expect.limit);
        let mut facts = LayerFacts::default();
        if req.path.is_none() {
            let (_, lint) = tracer.span("mapi.lint_for", class, id, Some(root), || {
                self.primed.lint_for("materials", criteria)
            });
            facts.probe_errors += u64::from(lint.is_err());
        }
        if hit {
            // Prime outside the span, then time the hit.
            let _ = self
                .primed
                .query_cached("materials", criteria, props, Some(limit));
            let (_, rows) = tracer.span("mapi.cache_hit", class, id, Some(root), || {
                self.primed
                    .query_cached("materials", criteria, props, Some(limit))
            });
            facts.probe_errors += u64::from(rows.is_err());
        } else {
            // A fresh engine, so the probe is a true miss.
            let fresh = QueryEngine::new(self.db.clone());
            let (miss, _) = tracer.span("mapi.query_cached", class, id, Some(root), || {
                fresh.query_cached("materials", criteria, props, Some(limit))
            });
            let (_, filter) = tracer.span("mapi.sanitize", class, id, Some(miss), || {
                fresh.sanitize(criteria)
            });
            let filter = filter.expect("generated criteria are valid");
            let mut opts = FindOptions::all().limit(limit);
            if !req.expect.props.is_empty() {
                opts = opts.project(&req.expect.props);
            }
            let coll = self.db.collection("materials");
            let (_, rows) = tracer.span("docstore.find_with", class, id, Some(miss), || {
                coll.find_with(&filter, &opts)
            });
            facts.probe_errors += u64::from(rows.is_err());
            facts.returned = rows.map_or(0, |r| r.len());
            // Free-standing probes: parts of `find_with`'s self time.
            let (_, plan) = tracer.span("docstore.explain", class, id, None, || {
                coll.explain(&filter)
            });
            match plan {
                Ok(plan) => {
                    facts.examined = plan["docs_examined"].as_u64().unwrap_or(0);
                    facts.total = plan["docs_total"].as_u64().unwrap_or(0);
                    facts.parallel = plan["exec"]["mode"] == "parallel_morsels";
                    facts.per_item_ns = plan["exec"]["per_item_ns"].as_u64().unwrap_or(0);
                    facts.dispatch_ns = plan["exec"]["dispatch_ns"].as_u64().unwrap_or(0);
                }
                Err(_) => facts.probe_errors += 1,
            }
        }
        let path = req.path.as_deref().unwrap_or("POST /query/materials");
        tracer.span("mapi.weblog_record", class, id, None, || {
            self.weblog.record(now, path, 5, req.expect.rows())
        });
        facts
    }
}

/// What the planner and executor said about one probed scan.
#[derive(Default, Clone, Copy)]
pub struct LayerFacts {
    pub examined: u64,
    pub total: u64,
    pub returned: usize,
    pub parallel: bool,
    pub per_item_ns: u64,
    pub dispatch_ns: u64,
    /// Probes that returned an error.
    pub probe_errors: u64,
}

fn set_median(out: &mut Outcome, name: &'static str, mut samples: Samples, per: f64) {
    if !samples.is_empty() {
        out.set(name, samples.median_ns() / per);
    }
}

/// Per-class latencies of the untraced requests.
pub fn class_metrics(out: &mut Outcome, tally: &mut Tally) {
    for (class, p50, per, p99) in [
        (Class::Lookup, "lookup_p50_us", 1e3, Some("lookup_p99_us")),
        (Class::Browse, "browse_p50_us", 1e3, None),
        (Class::Collscan, "collscan_p50_ms", 1e6, None),
        (Class::Bulk, "bulk_p50_ms", 1e6, None),
    ] {
        let Some(samples) = tally.by_class.get_mut(&class) else {
            continue;
        };
        out.set(p50, samples.median_ns() / per);
        if let Some(p99) = p99 {
            out.set(p99, samples.tail_ns(99.0).1 / per);
        }
    }
    out.set("mapi.records_returned", tally.records as f64);
}

/// Per-layer metrics of the API path from a traced run. `main` is the
/// class whose root budget is checked; `untraced` holds the same
/// client's untraced latencies, for the tracing overhead.
pub fn layer_metrics(out: &mut Outcome, tracing: &Tracing, untraced: &mut Tally, main: Class) {
    let t = &tracing.tracer;
    let class = |c: Class| Some(c.name());
    set_median(out, "mapi.admit_ns", t.durations(None, "mapi.admit"), 1.0);
    set_median(
        out,
        "mapi.cache_hit_ns",
        t.durations(None, "mapi.cache_hit"),
        1.0,
    );
    set_median(
        out,
        "mapi.weblog_record_ns",
        t.durations(None, "mapi.weblog_record"),
        1.0,
    );
    set_median(
        out,
        "mapi.sanitize_us",
        t.durations(None, "mapi.sanitize"),
        1e3,
    );
    set_median(
        out,
        "mapi.lint_for_us",
        t.durations(None, "mapi.lint_for"),
        1e3,
    );
    set_median(
        out,
        "mapi.queryengine_self_us",
        t.selfs(None, "mapi.query_cached"),
        1e3,
    );
    let gets = if main == Class::Lookup {
        Class::Lookup
    } else {
        Class::Browse
    };
    set_median(
        out,
        "mapi.rest_self_us",
        t.selfs(class(gets), "api.handle"),
        1e3,
    );
    set_median(
        out,
        "docstore.find_id_us",
        t.durations(class(Class::Lookup), "docstore.find_with"),
        1e3,
    );
    set_median(
        out,
        "docstore.find_index_us",
        t.durations(class(Class::Browse), "docstore.find_with"),
        1e3,
    );
    set_median(
        out,
        "docstore.plan_us",
        t.durations(None, "docstore.explain"),
        1e3,
    );

    let of = |c: Class| {
        tracing
            .facts
            .iter()
            .filter(move |(fc, _)| *fc == c)
            .map(|(_, f)| *f)
    };
    let scans: Vec<LayerFacts> = of(Class::Collscan).collect();
    let mut collscan = t.durations(class(Class::Collscan), "docstore.find_with");
    if let (false, Some(first)) = (collscan.is_empty(), scans.first()) {
        out.set("docstore.find_collscan_ms", collscan.median_ns() / 1e6);
        out.set(
            "docstore.collscan_ns_per_doc",
            collscan.median_ns() / first.total.max(1) as f64,
        );
        let parallel = scans.iter().filter(|f| f.parallel).count();
        out.set(
            "exec.parallel_decision_frac",
            parallel as f64 / scans.len() as f64,
        );
        let mut per_item = Samples::default();
        let mut dispatch = Samples::default();
        for f in &scans {
            per_item.push(f.per_item_ns);
            dispatch.push(f.dispatch_ns);
        }
        out.set("exec.per_item_ns", per_item.median_ns());
        out.set("exec.dispatch_overhead_ns", dispatch.median_ns());
    }
    let bulk_rows = of(Class::Bulk)
        .map(|f| f.returned)
        .max()
        .unwrap_or(0)
        .max(1) as f64;
    let mut bulk_find = t.durations(class(Class::Bulk), "docstore.find_with");
    if !bulk_find.is_empty() {
        // The fused match-and-project pass per row it returns. A bounded
        // projected find stops scanning when its window is full, while
        // `count` and unprojected finds scan the whole collection, so no
        // scan-only probe is comparable and none is subtracted.
        out.set(
            "docstore.project_ns_per_match",
            bulk_find.median_ns() / bulk_rows,
        );
        let residual = t
            .selfs(class(Class::Bulk), "api.structured_query")
            .median_ns();
        out.set("mapi.rest_self_ns_per_record", residual / bulk_rows);
    }
    let (examined, returned) = tracing
        .facts
        .iter()
        .filter(|(c, _)| *c != Class::Bulk)
        .fold((0u64, 0usize), |(e, r), (_, f)| {
            (e + f.examined, r + f.returned)
        });
    if returned > 0 {
        out.set(
            "docstore.candidates_per_returned",
            examined as f64 / returned as f64,
        );
    }

    let root = if main == Class::Lookup || main == Class::Browse {
        "api.handle"
    } else {
        "api.structured_query"
    };
    out.set(
        "trace.layer_sum_ratio",
        t.layer_sum_ratio(main.name(), root),
    );
    let traced = t.durations(class(main), root).median_ns();
    let plain = untraced.by_class.entry(main).or_default().median_ns();
    if plain > 0.0 {
        out.set("trace.overhead_frac", traced / plain - 1.0);
    }
    out.set("trace.spans", t.len() as f64);
}

/// Query-cache counters over the measured phases of a run: summed
/// `cache_stats()` deltas.
#[derive(Default)]
pub struct CacheDelta {
    hits: u64,
    misses: u64,
    invalidations: u64,
    evictions: u64,
}

impl CacheDelta {
    pub fn add(&mut self, before: &CacheStats, after: &CacheStats) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.invalidations += after.invalidations - before.invalidations;
        self.evictions += after.evictions - before.evictions;
    }

    pub fn report(&self, out: &mut Outcome) {
        let probes = self.hits + self.misses;
        out.set(
            "mapi.cache_hit_ratio",
            if probes > 0 {
                self.hits as f64 / probes as f64
            } else {
                0.0
            },
        );
        out.set("mapi.cache_invalidations", self.invalidations as f64);
        out.set("mapi.cache_evictions", self.evictions as f64);
    }
}

/// Median `WebLog::record` on a log that already holds `capacity`
/// entries, where every record shifts the whole ring.
pub fn weblog_record_full_ns(capacity: usize) -> f64 {
    let log = WebLog::new(capacity);
    for i in 0..capacity {
        log.record(i as f64, "/rest/v1/materials/mp-1", 5, 1);
    }
    let mut samples = Samples::default();
    for i in 0..201 {
        let t = Instant::now();
        log.record((capacity + i) as f64, "/rest/v1/materials/mp-1", 5, 1);
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.median_ns()
}

/// Global work-pool counters over a run: the `stats()` delta.
pub fn pool_metrics(out: &mut Outcome, before: &PoolStats) {
    let pool = WorkPool::global();
    let after = pool.stats();
    out.set("exec.pool_size", pool.size() as f64);
    out.set(
        "exec.morsel_scatters",
        (after.morsel_scatters - before.morsel_scatters) as f64,
    );
    out.set(
        "exec.morsels_claimed",
        (after.morsels_claimed - before.morsels_claimed) as f64,
    );
    out.set(
        "exec.jobs_dispatched",
        (after.jobs_dispatched - before.jobs_dispatched) as f64,
    );
}

/// Write the span dump beside the executable.
pub fn dump_spans(out: &mut Outcome, cfg: &Config, tracer: &Tracer, workload: &str) {
    let path = cfg.data_dir.join(format!("spans-{workload}.jsonl"));
    match tracer.dump(&path) {
        Ok(()) => out.note(format!(
            "{} spans written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => out.note(format!("span dump failed: {e}")),
    }
}
