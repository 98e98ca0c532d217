//! MapReduce over collections.
//!
//! Two engines with identical semantics but different execution models:
//!
//! * [`BuiltinEngine`] — deliberately single-threaded, reproducing
//!   MongoDB's built-in MapReduce, which the paper notes is "severely
//!   limited by implementation within a single-threaded Javascript
//!   engine" (§IV-C2).
//! * [`HadoopEngine`] — partitions the input and scatters the mappers
//!   over the shared `mp-exec` work pool, reproducing the Mongo-Hadoop
//!   connector the paper found "several times faster" (§IV-B2).
//!
//! The V&V framework (§IV-C2: "A logical language in which to write the
//! V&V of a database is MapReduce") and the materials-view builder
//! (§III-B3) are both written against the [`MapReduce`] trait.

use crate::error::Result;
use crate::value::{Document, OrderedValue};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Emits `(key, value)` pairs for one input document.
pub type MapFn = dyn Fn(&Value, &mut dyn FnMut(Value, Value)) + Sync;
/// Folds all values of one key into a single value.
pub type ReduceFn = dyn Fn(&Value, &[Value]) -> Value + Sync;

/// A MapReduce execution engine.
///
/// Inputs are shared-ownership [`Arc<Document>`]s — the same handles the
/// read path returns — so staging a collection into a job never deep-copies
/// it; mappers borrow `&Value` through the `Arc`.
pub trait MapReduce {
    /// Run map + shuffle + reduce over `docs`; returns key → reduced value
    /// in key order.
    fn run(
        &self,
        docs: &[Arc<Document>],
        map: &MapFn,
        reduce: &ReduceFn,
    ) -> Result<Vec<(Value, Value)>>;

    /// Engine display name (for experiment tables).
    fn name(&self) -> &'static str;
}

/// Sequential engine: one thread maps every document, then reduces.
///
/// A per-document `overhead_ns` busy-delay models the interpreter cost of
/// MongoDB's JavaScript engine relative to native code; zero by default.
#[derive(Default)]
pub struct BuiltinEngine {
    /// Extra per-document cost in nanoseconds (interpreter tax).
    pub overhead_ns: u64,
}

impl BuiltinEngine {
    /// Engine with an explicit interpreter-tax per document.
    pub fn with_overhead_ns(overhead_ns: u64) -> Self {
        BuiltinEngine { overhead_ns }
    }
}

fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = std::time::Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

impl MapReduce for BuiltinEngine {
    fn run(
        &self,
        docs: &[Arc<Document>],
        map: &MapFn,
        reduce: &ReduceFn,
    ) -> Result<Vec<(Value, Value)>> {
        let mut groups: BTreeMap<OrderedValue, Vec<Value>> = BTreeMap::new();
        for doc in docs {
            spin_ns(self.overhead_ns);
            map(doc, &mut |k, v| {
                groups.entry(OrderedValue(k)).or_default().push(v);
            });
        }
        let mut out = Vec::with_capacity(groups.len());
        for (k, mut vs) in groups {
            let reduced = if vs.len() == 1 {
                vs.remove(0)
            } else {
                reduce(&k.0, &vs)
            };
            out.push((k.0, reduced));
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "builtin-single-threaded"
    }
}

/// Parallel engine: input split into `workers` partitions; each worker
/// maps its partition and pre-reduces locally (combiner), then a final
/// reduce merges the per-worker groups.
pub struct HadoopEngine {
    /// Number of worker threads.
    pub workers: usize,
}

impl HadoopEngine {
    /// Engine with `workers` threads (min 1).
    pub fn new(workers: usize) -> Self {
        HadoopEngine {
            workers: workers.max(1),
        }
    }
}

impl MapReduce for HadoopEngine {
    fn run(
        &self,
        docs: &[Arc<Document>],
        map: &MapFn,
        reduce: &ReduceFn,
    ) -> Result<Vec<(Value, Value)>> {
        let nw = self.workers.min(docs.len().max(1));
        let chunk = docs.len().div_ceil(nw);

        // Morsel-scatter the map phase: one morsel per partition, the
        // partitions grouped over the caller and the pool's scoped
        // threads; partials come back in partition order, so the merge
        // below is deterministic regardless of scheduling.
        let partials: Vec<BTreeMap<OrderedValue, Vec<Value>>> = mp_exec::WorkPool::global()
            .scatter_morsels(docs, chunk.max(1), |part| {
                let mut groups: BTreeMap<OrderedValue, Vec<Value>> = BTreeMap::new();
                for doc in part {
                    map(doc, &mut |k, v| {
                        groups.entry(OrderedValue(k)).or_default().push(v);
                    });
                }
                // Combiner: pre-reduce each key locally to shrink the
                // shuffle, as Hadoop combiners do.
                let mut combined: BTreeMap<OrderedValue, Vec<Value>> = BTreeMap::new();
                for (k, mut vs) in groups {
                    let v = if vs.len() == 1 {
                        vs.remove(0)
                    } else {
                        reduce(&k.0, &vs)
                    };
                    // mp-lint: allow(H002) — one singleton Vec per combined key is the combiner's output shape, not per-document scratch
                    combined.insert(k, vec![v]);
                }
                combined
            });

        // Shuffle: merge per-worker groups.
        let mut groups: BTreeMap<OrderedValue, Vec<Value>> = BTreeMap::new();
        for partial in partials {
            for (k, mut vs) in partial {
                groups.entry(k).or_default().append(&mut vs);
            }
        }
        let mut out = Vec::with_capacity(groups.len());
        for (k, mut vs) in groups {
            let reduced = if vs.len() == 1 {
                vs.remove(0)
            } else {
                reduce(&k.0, &vs)
            };
            out.push((k.0, reduced));
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "hadoop-parallel"
    }
}

/// Reduce function that must be associative + commutative for the
/// combiner optimization to be sound; a numeric sum qualifies.
pub fn sum_reduce(_key: &Value, values: &[Value]) -> Value {
    let total: f64 = values.iter().filter_map(Value::as_f64).sum();
    if total.fract() == 0.0 && total.abs() < 9e15 {
        Value::from(total as i64)
    } else {
        Value::from(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::to_docs;
    use serde_json::json;

    fn word_docs() -> crate::value::Docs {
        to_docs(vec![
            json!({"els": ["Li", "O"]}),
            json!({"els": ["Fe", "O"]}),
            json!({"els": ["Li", "Fe", "O"]}),
        ])
    }

    fn count_map(doc: &Value, emit: &mut dyn FnMut(Value, Value)) {
        if let Some(els) = doc["els"].as_array() {
            for e in els {
                emit(e.clone(), json!(1));
            }
        }
    }

    #[test]
    fn builtin_counts() {
        let eng = BuiltinEngine::default();
        let out = eng.run(&word_docs(), &count_map, &sum_reduce).unwrap();
        assert_eq!(
            out,
            vec![
                (json!("Fe"), json!(2)),
                (json!("Li"), json!(2)),
                (json!("O"), json!(3)),
            ]
        );
    }

    #[test]
    fn hadoop_matches_builtin() {
        let docs: crate::value::Docs = (0..500)
            .map(|i| Arc::new(json!({"els": [format!("E{}", i % 13)], "n": i})))
            .collect();
        let map = |doc: &Value, emit: &mut dyn FnMut(Value, Value)| {
            emit(doc["els"][0].clone(), doc["n"].clone());
        };
        let seq = BuiltinEngine::default()
            .run(&docs, &map, &sum_reduce)
            .unwrap();
        for workers in [1, 2, 4, 8] {
            let par = HadoopEngine::new(workers)
                .run(&docs, &map, &sum_reduce)
                .unwrap();
            assert_eq!(seq, par, "workers={workers}");
        }
    }

    #[test]
    fn single_value_keys_skip_reduce() {
        // Reduce must not be called for singleton groups (Mongo contract).
        let docs = to_docs(vec![json!({"k": "a"}), json!({"k": "b"})]);
        let map = |doc: &Value, emit: &mut dyn FnMut(Value, Value)| {
            emit(doc["k"].clone(), json!(1));
        };
        let panicky = |_k: &Value, _vs: &[Value]| -> Value { panic!("reduce called") };
        let out = BuiltinEngine::default().run(&docs, &map, &panicky).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_input() {
        let out = HadoopEngine::new(4)
            .run(&[], &count_map, &sum_reduce)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn group_best_pattern() {
        // The materials-view pattern: group tasks by mps_id, keep the one
        // with lowest energy.
        let docs = to_docs(vec![
            json!({"mps_id": 1, "energy": -3.0}),
            json!({"mps_id": 1, "energy": -5.0}),
            json!({"mps_id": 2, "energy": -1.0}),
        ]);
        let map = |doc: &Value, emit: &mut dyn FnMut(Value, Value)| {
            emit(doc["mps_id"].clone(), doc.clone());
        };
        let best = |_k: &Value, vs: &[Value]| -> Value {
            vs.iter()
                .min_by(|a, b| {
                    a["energy"]
                        .as_f64()
                        .unwrap()
                        .partial_cmp(&b["energy"].as_f64().unwrap())
                        .unwrap()
                })
                .cloned()
                .unwrap()
        };
        let out = HadoopEngine::new(2).run(&docs, &map, &best).unwrap();
        assert_eq!(out[0].1["energy"], json!(-5.0));
        assert_eq!(out[1].1["energy"], json!(-1.0));
    }
}

/// Pre-staged analytics input (§IV-B2): "efficiency can be gained by
/// pre-staging the MongoDB data to HDFS." A stage is an immutable,
/// shared snapshot of a collection taken once; repeated analytics jobs
/// run against it without re-extracting (and re-cloning) documents from
/// the live store each time. "MongoDB will continue to contain
/// references to the data" — the stage records its source collection
/// and document count for exactly that purpose.
pub struct HdfsStage {
    docs: std::sync::Arc<crate::value::Docs>,
    /// Source collection name (the reference kept in MongoDB).
    pub source: String,
    /// Store op-count at staging time (staleness diagnostics).
    pub staged_at_ops: u64,
}

impl HdfsStage {
    /// Extract a collection into the stage (the one-time transfer cost).
    pub fn from_collection(db: &crate::database::Database, collection: &str) -> Self {
        let docs = db.collection(collection).dump();
        HdfsStage {
            docs: std::sync::Arc::new(docs),
            source: collection.to_string(),
            staged_at_ops: db.profiler().total_ops(),
        }
    }

    /// Documents in the stage.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Is the stage empty?
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Run a MapReduce job against the staged data.
    pub fn run(
        &self,
        engine: &dyn MapReduce,
        map: &MapFn,
        reduce: &ReduceFn,
    ) -> Result<Vec<(Value, Value)>> {
        engine.run(&self.docs, map, reduce)
    }
}

#[cfg(test)]
mod hdfs_tests {
    use super::*;
    use crate::database::Database;
    use serde_json::json;

    #[test]
    fn stage_matches_live_results_until_writes() {
        let db = Database::new();
        let c = db.collection("tasks");
        for i in 0..50 {
            c.insert_one(json!({"grp": i % 5, "v": i})).unwrap();
        }
        let stage = HdfsStage::from_collection(&db, "tasks");
        assert_eq!(stage.len(), 50);

        let map = |d: &Value, emit: &mut dyn FnMut(Value, Value)| {
            emit(d["grp"].clone(), d["v"].clone());
        };
        let eng = BuiltinEngine::default();
        let live = eng.run(&c.dump(), &map, &sum_reduce).unwrap();
        let staged = stage.run(&eng, &map, &sum_reduce).unwrap();
        assert_eq!(live, staged);

        // The stage is a snapshot: later writes don't appear (MongoDB
        // keeps the authoritative data; the stage must be refreshed).
        c.insert_one(json!({"grp": 0, "v": 1000})).unwrap();
        let live2 = eng.run(&c.dump(), &map, &sum_reduce).unwrap();
        let staged2 = stage.run(&eng, &map, &sum_reduce).unwrap();
        assert_ne!(live2, staged2);
        assert_eq!(staged2, staged);
    }

    #[test]
    fn repeated_jobs_share_the_snapshot() {
        let db = Database::new();
        let c = db.collection("t");
        for i in 0..20 {
            c.insert_one(json!({"k": i % 3, "v": 1})).unwrap();
        }
        let stage = HdfsStage::from_collection(&db, "t");
        let map = |d: &Value, emit: &mut dyn FnMut(Value, Value)| {
            emit(d["k"].clone(), d["v"].clone());
        };
        let eng = HadoopEngine::new(2);
        // Ten jobs over one extraction; results all agree.
        let first = stage.run(&eng, &map, &sum_reduce).unwrap();
        for _ in 0..9 {
            assert_eq!(stage.run(&eng, &map, &sum_reduce).unwrap(), first);
        }
        assert_eq!(stage.source, "t");
    }
}
