//! Seeded corpus, request generator and oracle.
//!
//! Everything the program under test sees is generated here from
//! `--seed`; everything the harness expects back is computed here too,
//! by plain Rust over the generated [`Record`]s — never by asking the
//! docstore. The same seed gives byte-identical corpora and request
//! streams; a different seed gives different ones (unit-tested below).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Map, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Element pool the chemical systems are drawn from. 40 symbols give
/// C(40,2..4) ≈ 102k possible systems, so 2,400 distinct ones are easy
/// to draw and the `chemsys` index stays far wider than the 256-entry
/// query cache.
const ELEMENTS: [&str; 40] = [
    "Ag", "Al", "As", "B", "Ba", "Bi", "Br", "C", "Ca", "Cl", "Co", "Cr", "Cu", "F", "Fe", "Ga",
    "Ge", "H", "I", "K", "La", "Li", "Mg", "Mn", "Mo", "N", "Na", "Nb", "Ni", "O", "P", "S", "Sb",
    "Se", "Si", "Sn", "Sr", "Ti", "V", "Zn",
];

/// Distinct chemical systems in a full-size corpus.
pub const SYSTEMS: usize = 2400;

/// The properties `/vasp/{prop}` requests ask for, with the dotted path
/// each alias resolves to (the table `QueryEngine::new` installs).
pub const PROPS: [(&str, &str); 4] = [
    ("energy", "output.energy"),
    ("energy_per_atom", "output.energy_per_atom"),
    ("band_gap", "output.band_gap"),
    ("e_above_hull", "stability.e_above_hull"),
];

/// Independent stream ids, mixed into the seed so every generator
/// draws from its own sequence.
pub mod stream {
    pub const CORPUS: u64 = 1;
    pub const PORTAL: u64 = 2;
    pub const EXPLORE: u64 = 3;
    pub const INGEST_READ: u64 = 4;
    pub const INGEST_WRITE: u64 = 5;
    pub const QUEUE: u64 = 6;
}

/// A generator for one (seed, stream, lane) triple.
pub fn rng_for(seed: u64, stream: u64, lane: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ stream.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            ^ lane.wrapping_mul(0x1656_67b1_9e37_79f9),
    )
}

/// One material, as the oracle sees it. Floats are stored in
/// thousandths so equality with the JSON the store returns is exact.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub id: String,
    pub formula: String,
    pub chemsys: String,
    pub elements: Vec<&'static str>,
    pub nsites: u32,
    pub density_milli: u32,
    pub energy_milli: i64,
    pub energy_per_atom_milli: i64,
    pub band_gap_milli: u32,
    pub e_above_hull_milli: u32,
}

fn milli(v: i64) -> f64 {
    v as f64 / 1000.0
}

impl Record {
    pub fn density(&self) -> f64 {
        milli(self.density_milli.into())
    }

    pub fn band_gap(&self) -> f64 {
        milli(self.band_gap_milli.into())
    }

    /// The full document loaded into `materials`.
    pub fn doc(&self) -> Value {
        json!({
            "_id": self.id,
            "formula": self.formula,
            "chemsys": self.chemsys,
            "elements": self.elements,
            "nelements": self.elements.len(),
            "nsites": self.nsites,
            "density": self.density(),
            "output": {
                "energy": milli(self.energy_milli),
                "energy_per_atom": milli(self.energy_per_atom_milli),
                "band_gap": self.band_gap(),
            },
            "stability": {"e_above_hull": milli(self.e_above_hull_milli.into())},
        })
    }

    /// What a request for `props` (dotted paths) must return for this
    /// material: `_id` plus the nested projected fields, or the full
    /// document when `props` is empty.
    pub fn projected(&self, props: &[&str]) -> Value {
        if props.is_empty() {
            return self.doc();
        }
        let full = self.doc();
        let mut out = Map::new();
        out.insert("_id".into(), json!(self.id));
        for path in props {
            match path.split_once('.') {
                None => {
                    out.insert((*path).into(), full[*path].clone());
                }
                Some((head, leaf)) => {
                    let nested = out
                        .entry(head.to_string())
                        .or_insert_with(|| Value::Object(Map::new()));
                    if let Some(m) = nested.as_object_mut() {
                        m.insert(leaf.into(), full[head][leaf].clone());
                    }
                }
            }
        }
        Value::Object(out)
    }
}

/// The generated corpus plus the lookup tables the oracle answers from.
pub struct Corpus {
    pub records: Vec<Record>,
    /// Distinct chemical systems.
    pub systems: Vec<String>,
    /// Record indices per system, ascending (parallel to `systems`).
    by_system: Vec<Vec<usize>>,
    by_formula: BTreeMap<String, Vec<usize>>,
    /// Every density / band gap, ascending: range counts by bisection.
    densities: Vec<f64>,
    band_gaps: Vec<f64>,
}

impl Corpus {
    /// `n` materials over `min(SYSTEMS, n / 8)` chemical systems.
    pub fn generate(seed: u64, n: usize) -> Corpus {
        let mut rng = rng_for(seed, stream::CORPUS, 0);
        let nsys = SYSTEMS.min((n / 8).max(4));
        let mut seen = BTreeSet::new();
        let mut system_elements: Vec<Vec<&'static str>> = Vec::with_capacity(nsys);
        while system_elements.len() < nsys {
            let k = rng.gen_range(2..=4usize);
            let mut els = BTreeSet::new();
            while els.len() < k {
                els.insert(ELEMENTS[rng.gen_range(0..ELEMENTS.len())]);
            }
            let els: Vec<&'static str> = els.into_iter().collect();
            if seen.insert(els.join("-")) {
                system_elements.push(els);
            }
        }
        let mut by_system = vec![Vec::new(); nsys];
        let records: Vec<Record> = (0..n)
            .map(|i| {
                let sys = rng.gen_range(0..nsys);
                by_system[sys].push(i);
                let els = &system_elements[sys];
                let counts: Vec<u32> = els.iter().map(|_| rng.gen_range(1..=4u32)).collect();
                let formula: String = els
                    .iter()
                    .zip(&counts)
                    .map(|(e, c)| {
                        if *c == 1 {
                            (*e).to_string()
                        } else {
                            format!("{e}{c}")
                        }
                    })
                    .collect();
                let nsites = counts.iter().sum::<u32>() * rng.gen_range(1..=4u32);
                let epa = -rng.gen_range(1_000..9_000i64);
                Record {
                    id: format!("mp-{}", i + 1),
                    formula,
                    chemsys: els.join("-"),
                    elements: els.clone(),
                    nsites,
                    density_milli: rng.gen_range(1_000..12_000u32),
                    energy_milli: epa * i64::from(nsites),
                    energy_per_atom_milli: epa,
                    band_gap_milli: rng.gen_range(0..8_000u32),
                    e_above_hull_milli: rng.gen_range(0..500u32),
                }
            })
            .collect();
        let mut by_formula: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, r) in records.iter().enumerate() {
            by_formula.entry(r.formula.clone()).or_default().push(i);
        }
        let sorted = |f: fn(&Record) -> f64| {
            let mut v: Vec<f64> = records.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        Corpus {
            systems: system_elements.iter().map(|e| e.join("-")).collect(),
            by_system,
            by_formula,
            densities: sorted(Record::density),
            band_gaps: sorted(Record::band_gap),
            records,
        }
    }

    /// Documents in `_id` order, ready for `insert_many`.
    pub fn docs(&self) -> Vec<Value> {
        self.records.iter().map(Record::doc).collect()
    }

    /// Oracle: how many records `pred` selects.
    pub fn count(&self, pred: &Pred) -> usize {
        let below = |sorted: &[f64], x: f64| sorted.partition_point(|v| *v < x);
        match pred {
            Pred::Ids(ids) => ids.len(),
            Pred::DensityIn { lo, hi } => below(&self.densities, *hi) - below(&self.densities, *lo),
            Pred::BandGapBelow(cut) => below(&self.band_gaps, *cut),
        }
    }
}

/// The filters the generator issues, in the oracle's own terms.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// Exactly these records (ascending corpus indices).
    Ids(Vec<usize>),
    /// `lo <= density < hi`.
    DensityIn { lo: f64, hi: f64 },
    /// `band_gap < cut`.
    BandGapBelow(f64),
}

impl Pred {
    fn selects(&self, idx: usize, r: &Record) -> bool {
        match self {
            Pred::Ids(ids) => ids.binary_search(&idx).is_ok(),
            Pred::DensityIn { lo, hi } => r.density() >= *lo && r.density() < *hi,
            Pred::BandGapBelow(cut) => r.band_gap() < *cut,
        }
    }
}

/// What a response must contain: the records `pred` selects, under the
/// projection `props`, capped at the route's row `limit`. When more
/// match than the cap allows, any `limit` distinct ones are right.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    pub pred: Pred,
    /// Records matching `pred` (before the cap).
    pub matching: usize,
    pub props: Vec<&'static str>,
    pub limit: usize,
}

impl Expect {
    fn new(corpus: &Corpus, pred: Pred, props: &[&'static str], limit: usize) -> Expect {
        Expect {
            matching: corpus.count(&pred),
            pred,
            props: props.to_vec(),
            limit,
        }
    }

    pub fn rows(&self) -> usize {
        self.matching.min(self.limit)
    }

    /// Row count always; on `full`, every row must be the oracle's
    /// projection of a distinct matching record. `ignore` names a
    /// top-level field the concurrent writer owns (stripped before the
    /// comparison).
    pub fn check(
        &self,
        corpus: &Corpus,
        payload: &Value,
        full: bool,
        ignore: Option<&str>,
    ) -> bool {
        let Some(rows) = payload.as_array() else {
            return false;
        };
        if rows.len() != self.rows() {
            return false;
        }
        if !full {
            return true;
        }
        let mut seen = BTreeSet::new();
        rows.iter().all(|row| {
            let Some(id) = row["_id"].as_str() else {
                return false;
            };
            let Some(idx) = id
                .strip_prefix("mp-")
                .and_then(|n| n.parse::<usize>().ok())
                .and_then(|n| n.checked_sub(1))
            else {
                return false;
            };
            let Some(record) = corpus.records.get(idx) else {
                return false;
            };
            if !self.pred.selects(idx, record) || !seen.insert(idx) {
                return false;
            }
            let want = record.projected(&self.props);
            match ignore {
                Some(field) if row.get(field).is_some() => {
                    let mut got = row.clone();
                    if let Some(m) = got.as_object_mut() {
                        m.remove(field);
                    }
                    got == want
                }
                _ => *row == want,
            }
        })
    }
}

/// Request class, for per-class latency and layer budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Lookup,
    Browse,
    Collscan,
    Bulk,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Lookup => "lookup",
            Class::Browse => "browse",
            Class::Collscan => "collscan",
            Class::Bulk => "bulk",
        }
    }
}

/// A generated request with its oracle answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub class: Class,
    /// REST path for `MaterialsApi::handle`; `None` goes to
    /// `structured_query` on `materials`.
    pub path: Option<String>,
    /// Criteria and alias-space properties: the arguments of
    /// `structured_query`, and what the router turns `path` into (the
    /// layer probes call the inner functions with them).
    pub criteria: Value,
    pub props: Vec<&'static str>,
    pub expect: Expect,
}

/// Cumulative Zipf(s) distribution over `n` ranks.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

fn get_by_id(corpus: &Corpus, idx: usize) -> Request {
    let id = &corpus.records[idx].id;
    Request {
        class: Class::Lookup,
        path: Some(format!("/rest/v1/materials/{id}")),
        criteria: json!({"_id": id}),
        props: vec![],
        expect: Expect::new(corpus, Pred::Ids(vec![idx]), &[], 500),
    }
}

fn get_by_chemsys(corpus: &Corpus, sys: usize, class: Class) -> Request {
    let chemsys = &corpus.systems[sys];
    Request {
        class,
        path: Some(format!("/rest/v1/materials/{chemsys}")),
        criteria: json!({"chemsys": chemsys}),
        props: vec![],
        expect: Expect::new(corpus, Pred::Ids(corpus.by_system[sys].clone()), &[], 500),
    }
}

/// The `portal_hot` request table: `n` distinct requests in Zipf rank
/// order — rank 0 is the hottest. Of every ten ranks the first seven
/// are by id, the next two by formula + property and the last by
/// chemical system, and the formulas and systems are the ones whose row
/// counts are nearest the typical one, so each route's share of the
/// traffic and its payload size are the same for every seed; the seed
/// picks the materials.
pub fn portal_table(corpus: &Corpus, seed: u64, n: usize) -> Vec<Request> {
    let mut rng = rng_for(seed, stream::PORTAL, 0);
    let mut ids = permutation(&mut rng, corpus.records.len()).into_iter();
    // Stable sorts: among equally good candidates the seeded order stays.
    let typical = corpus.records.len() / corpus.systems.len();
    let mut systems = permutation(&mut rng, corpus.systems.len());
    systems.sort_by_key(|sys| corpus.by_system[*sys].len().abs_diff(typical));
    let mut systems = systems.into_iter();
    let names: Vec<&String> = corpus.by_formula.keys().collect();
    let mut formulas = permutation(&mut rng, names.len());
    formulas.sort_by_key(|f| corpus.by_formula[names[*f]].len());
    let mut formulas = formulas.into_iter().map(|f| names[f]);
    (0..n)
        .map(|slot| match slot % 10 {
            0..=6 => get_by_id(corpus, ids.next().expect("more materials than requests")),
            7 | 8 => {
                let formula = formulas.next().expect("more formulas than requests");
                let (alias, path) = PROPS[rng.gen_range(0..PROPS.len())];
                Request {
                    class: Class::Lookup,
                    path: Some(format!("/rest/v1/materials/{formula}/vasp/{alias}")),
                    criteria: json!({"formula": formula}),
                    props: vec![alias],
                    expect: Expect::new(
                        corpus,
                        Pred::Ids(corpus.by_formula[formula].clone()),
                        &[path],
                        500,
                    ),
                }
            }
            _ => get_by_chemsys(
                corpus,
                systems.next().expect("more systems than requests"),
                Class::Lookup,
            ),
        })
        .collect()
}

/// The `explore_scan` stream: cycles of one unindexed range query, a
/// run of indexed chemsys browses and one projected bulk pull, every
/// request with parameters no earlier request used.
pub struct ExploreStream<'a> {
    corpus: &'a Corpus,
    rng: StdRng,
    systems: Vec<usize>,
    next_sys: usize,
    cycle: usize,
    slot: usize,
    pub browses_per_cycle: usize,
}

/// Properties of the range query and of the bulk pull, as (alias,
/// path) pairs.
const RANGE_PROPS: [&str; 3] = ["formula", "band_gap", "e_above_hull"];
const RANGE_PATHS: [&str; 3] = ["formula", "output.band_gap", "stability.e_above_hull"];
const BULK_PROPS: [&str; 2] = ["formula", "energy_per_atom"];
const BULK_PATHS: [&str; 2] = ["formula", "output.energy_per_atom"];

impl<'a> ExploreStream<'a> {
    pub fn new(corpus: &'a Corpus, seed: u64, browses_per_cycle: usize) -> Self {
        let mut rng = rng_for(seed, stream::EXPLORE, 0);
        let systems = permutation(&mut rng, corpus.systems.len());
        ExploreStream {
            corpus,
            rng,
            systems,
            next_sys: 0,
            cycle: 0,
            slot: 0,
            browses_per_cycle,
        }
    }

    /// ~2 % selective window on unindexed `density`; the lower bound is
    /// offset by the cycle number in millionths so no two are equal.
    fn collscan(&mut self) -> Request {
        let lo_milli = self.rng.gen_range(1_000..11_700u32);
        let lo = f64::from(lo_milli) / 1000.0 + self.cycle as f64 * 1e-6;
        let hi = lo + 0.22;
        Request {
            class: Class::Collscan,
            path: None,
            criteria: json!({"density": {"$gte": lo, "$lt": hi}}),
            props: RANGE_PROPS.to_vec(),
            expect: Expect::new(
                self.corpus,
                Pred::DensityIn { lo, hi },
                &RANGE_PATHS,
                10_000,
            ),
        }
    }

    /// A pull wide enough to hit the route's 10,000-row cap on a full
    /// corpus: everything below a band-gap cut that moves every cycle.
    fn bulk(&mut self) -> Request {
        let cut =
            4.0 + f64::from(self.rng.gen_range(0..3_000u32)) / 1000.0 + self.cycle as f64 * 1e-6;
        Request {
            class: Class::Bulk,
            path: None,
            criteria: json!({"band_gap": {"$lt": cut}}),
            props: BULK_PROPS.to_vec(),
            expect: Expect::new(self.corpus, Pred::BandGapBelow(cut), &BULK_PATHS, 10_000),
        }
    }
}

impl Iterator for ExploreStream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let per_cycle = self.browses_per_cycle + 2;
        let req = if self.slot == 0 {
            self.collscan()
        } else if self.slot <= self.browses_per_cycle {
            // Walk a permutation of all systems: a system recurs only
            // after every other one, long after FIFO eviction.
            let sys = self.systems[self.next_sys % self.systems.len()];
            self.next_sys += 1;
            get_by_chemsys(self.corpus, sys, Class::Browse)
        } else {
            self.bulk()
        };
        self.slot = (self.slot + 1) % per_cycle;
        if self.slot == 0 {
            self.cycle += 1;
        }
        Some(req)
    }
}

/// The `ingest_mixed` reader's stream: lookups by id, Zipf(0.9) over a
/// seeded choice of `hot` materials. The requests are built once, so the
/// reader's loop spends its time in the program and not in the harness.
pub struct IngestReads {
    rng: StdRng,
    requests: Vec<Request>,
    zipf: Zipf,
}

impl IngestReads {
    pub fn new(corpus: &Corpus, seed: u64, hot: usize) -> Self {
        let mut rng = rng_for(seed, stream::INGEST_READ, 0);
        let mut ids = permutation(&mut rng, corpus.records.len());
        ids.truncate(hot);
        IngestReads {
            zipf: Zipf::new(ids.len(), 0.9),
            requests: ids.into_iter().map(|idx| get_by_id(corpus, idx)).collect(),
            rng,
        }
    }

    pub fn next_request(&mut self) -> &Request {
        &self.requests[self.zipf.sample(&mut self.rng)]
    }
}

/// One durable write of the `ingest_mixed` writer.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// `insert_one` into `tasks`.
    InsertTask(Value),
    /// `update_one` on `materials`: the derived-view refresh.
    RefreshMaterial { idx: usize, stamp: u64 },
}

/// The writer's stream: task inserts, every `refresh_every`th op a
/// material refresh.
pub struct IngestWrites {
    rng: StdRng,
    nmaterials: usize,
    refresh_every: u64,
    op: u64,
}

impl IngestWrites {
    pub fn new(seed: u64, nmaterials: usize, refresh_every: u64) -> Self {
        IngestWrites {
            rng: rng_for(seed, stream::INGEST_WRITE, 0),
            nmaterials,
            refresh_every,
            op: 0,
        }
    }
}

impl Iterator for IngestWrites {
    type Item = WriteOp;

    fn next(&mut self) -> Option<WriteOp> {
        self.op += 1;
        if self.op.is_multiple_of(self.refresh_every) {
            return Some(WriteOp::RefreshMaterial {
                idx: self.rng.gen_range(0..self.nmaterials),
                stamp: self.op,
            });
        }
        let nsites = self.rng.gen_range(2..40u32);
        let forces: Vec<f64> = (0..12)
            .map(|_| f64::from(self.rng.gen_range(-500..500i32)) / 1000.0)
            .collect();
        Some(WriteOp::InsertTask(json!({
            "_id": format!("task-{}", self.op),
            "material": format!("mp-{}", self.rng.gen_range(1..=self.nmaterials)),
            "functional": if self.rng.gen_bool(0.8) { "GGA" } else { "GGA+U" },
            "state": "successful",
            "nsites": nsites,
            "walltime_s": self.rng.gen_range(60..86_400u32),
            "output": {
                "energy": -f64::from(self.rng.gen_range(1_000..900_000u32)) / 1000.0,
                "max_force": forces,
            },
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_requests(seed: u64) -> (Vec<Request>, Vec<Request>, Vec<Request>, Vec<WriteOp>) {
        let corpus = Corpus::generate(seed, 2_000);
        (
            portal_table(&corpus, seed, 64),
            ExploreStream::new(&corpus, seed, 5).take(30).collect(),
            {
                let mut reads = IngestReads::new(&corpus, seed, 500);
                (0..200).map(|_| reads.next_request().clone()).collect()
            },
            IngestWrites::new(seed, 2_000, 16).take(100).collect(),
        )
    }

    #[test]
    fn same_seed_same_corpus_and_streams() {
        let a = Corpus::generate(7, 2_000);
        let b = Corpus::generate(7, 2_000);
        assert_eq!(a.records, b.records);
        assert_eq!(
            serde_json::to_string(&a.docs()).unwrap(),
            serde_json::to_string(&b.docs()).unwrap()
        );
        assert_eq!(first_requests(7), first_requests(7));
    }

    #[test]
    fn different_seed_different_corpus_and_streams() {
        assert_ne!(
            Corpus::generate(7, 2_000).records,
            Corpus::generate(8, 2_000).records
        );
        let (a, b) = (first_requests(7), first_requests(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
        assert_ne!(a.3, b.3);
    }

    #[test]
    fn portal_table_is_distinct_and_answerable() {
        let corpus = Corpus::generate(3, 2_000);
        let table = portal_table(&corpus, 3, 128);
        let paths: BTreeSet<&String> = table
            .iter()
            .map(|r| r.path.as_ref().expect("portal issues GETs only"))
            .collect();
        assert_eq!(paths.len(), 128, "every request string is distinct");
        assert!(table.iter().all(|r| r.expect.rows() >= 1), "no 404s");
    }

    #[test]
    fn oracle_rejects_wrong_payloads() {
        let corpus = Corpus::generate(3, 2_000);
        let expect = Expect::new(&corpus, Pred::Ids(vec![4, 9]), &["output.energy"], 500);
        let good = json!([
            corpus.records[9].projected(&["output.energy"]),
            corpus.records[4].projected(&["output.energy"]),
        ]);
        assert!(expect.check(&corpus, &good, true, None));
        let short = json!([corpus.records[4].projected(&["output.energy"])]);
        assert!(!expect.check(&corpus, &short, false, None));
        let dup = json!([good[0].clone(), good[0].clone()]);
        assert!(
            expect.check(&corpus, &dup, false, None),
            "count alone passes"
        );
        assert!(
            !expect.check(&corpus, &dup, true, None),
            "full check catches it"
        );
        let wrong = json!([
            good[0].clone(),
            corpus.records[5].projected(&["output.energy"])
        ]);
        assert!(!expect.check(&corpus, &wrong, true, None));
        let mut stamped = good.clone();
        stamped[0]["refreshed"] = json!(17);
        assert!(!expect.check(&corpus, &stamped, true, None));
        assert!(expect.check(&corpus, &stamped, true, Some("refreshed")));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(128, 1.0);
        let mut rng = rng_for(1, 99, 0);
        let mut hits = [0usize; 128];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[9] && hits[9] > hits[99]);
    }
}
