//! Aggregation pipelines.
//!
//! "Both the web interface and workflow components perform complex
//! ad-hoc queries over these structures" (§III-B). Beyond plain finds,
//! the production system leaned on Mongo's aggregation stages for the
//! web UI's statistics panels and the analytics notebooks. This module
//! implements the core stage set: `$match`, `$project`, `$unwind`,
//! `$group` (with sum/avg/min/max/count/push accumulators), `$sort`,
//! `$skip`, `$limit`, and `$count`.

use crate::cursor::{CompiledProjection, FindOptions, SortDir};
use crate::error::{Result, StoreError};
use crate::query::Filter;
use crate::value::{cmp_values, Docs, Document, OrderedValue, Path};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One pipeline stage, parsed.
#[derive(Debug, Clone)]
pub enum Stage {
    /// Keep documents matching the filter.
    Match(Filter),
    /// Keep only the listed dotted paths (plus `_id`).
    Project(Vec<String>),
    /// Duplicate each document once per element of an array field.
    Unwind(Path),
    /// Group by a key expression with accumulators.
    Group {
        /// Dotted path whose value becomes the group key (`None` groups
        /// everything into a single bucket, like `_id: null`).
        key: Option<Path>,
        /// (output field, accumulator, input path; `None` counts).
        accumulators: Vec<(String, Accumulator, Option<Path>)>,
    },
    /// Sort by (path, direction) pairs.
    Sort(Vec<(String, SortDir)>),
    /// Skip the first n documents.
    Skip(usize),
    /// Keep at most n documents.
    Limit(usize),
    /// Replace the stream with `{"count": n}`.
    Count(String),
}

/// Group accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accumulator {
    Sum,
    Avg,
    Min,
    Max,
    Count,
    Push,
    First,
}

/// Parse a JSON pipeline (array of single-key stage objects).
pub fn parse_pipeline(stages: &Value) -> Result<Vec<Stage>> {
    let arr = stages
        .as_array()
        .ok_or_else(|| StoreError::BadQuery("pipeline must be an array".into()))?;
    let mut out = Vec::with_capacity(arr.len());
    for st in arr {
        let obj = st
            .as_object()
            .ok_or_else(|| StoreError::BadQuery("stage must be an object".into()))?;
        let mut ops = obj.iter();
        let (op, spec) = match (ops.next(), ops.next()) {
            (Some(kv), None) => kv,
            _ => {
                return Err(StoreError::BadQuery(
                    "each stage must have exactly one operator".into(),
                ))
            }
        };
        out.push(parse_stage(op, spec)?);
    }
    Ok(out)
}

fn parse_stage(op: &str, spec: &Value) -> Result<Stage> {
    Ok(match op {
        "$match" => Stage::Match(Filter::parse(spec)?),
        "$project" => {
            let obj = spec
                .as_object()
                .ok_or_else(|| StoreError::BadQuery("$project expects an object".into()))?;
            let mut paths = Vec::new();
            for (k, v) in obj {
                if v == &json!(1) || v == &json!(true) {
                    paths.push(k.clone());
                } else {
                    return Err(StoreError::BadQuery(format!(
                        "$project only supports inclusion, got {k}: {v}"
                    )));
                }
            }
            Stage::Project(paths)
        }
        "$unwind" => {
            let path = spec
                .as_str()
                .ok_or_else(|| StoreError::BadQuery("$unwind expects a field path".into()))?;
            Stage::Unwind(Path::new(path.trim_start_matches('$')))
        }
        "$group" => {
            let obj = spec
                .as_object()
                .ok_or_else(|| StoreError::BadQuery("$group expects an object".into()))?;
            let key = match obj.get("_id") {
                None | Some(Value::Null) => None,
                Some(Value::String(s)) => Some(Path::new(s.trim_start_matches('$'))),
                Some(other) => {
                    return Err(StoreError::BadQuery(format!(
                        "$group _id must be a field reference or null, got {other}"
                    )))
                }
            };
            let mut accumulators = Vec::new();
            for (field, acc_spec) in obj {
                if field == "_id" {
                    continue;
                }
                let acc_obj = acc_spec.as_object().ok_or_else(|| {
                    StoreError::BadQuery(format!("accumulator for {field} must be an object"))
                })?;
                let mut acc_ops = acc_obj.iter();
                let (acc_op, input) = match (acc_ops.next(), acc_ops.next()) {
                    (Some(kv), None) => kv,
                    _ => {
                        return Err(StoreError::BadQuery(
                            "accumulator must have exactly one operator".into(),
                        ))
                    }
                };
                let acc = match acc_op.as_str() {
                    "$sum" => Accumulator::Sum,
                    "$avg" => Accumulator::Avg,
                    "$min" => Accumulator::Min,
                    "$max" => Accumulator::Max,
                    "$count" => Accumulator::Count,
                    "$push" => Accumulator::Push,
                    "$first" => Accumulator::First,
                    other => {
                        return Err(StoreError::BadQuery(format!("unknown accumulator {other}")))
                    }
                };
                let input_path = match input {
                    Value::String(s) => Some(s.trim_start_matches('$'))
                        .filter(|s| !s.is_empty())
                        .map(Path::new),
                    // `$sum: 1` counts.
                    _ => None,
                };
                accumulators.push((field.clone(), acc, input_path));
            }
            Stage::Group { key, accumulators }
        }
        "$sort" => {
            let obj = spec
                .as_object()
                .ok_or_else(|| StoreError::BadQuery("$sort expects an object".into()))?;
            let mut keys = Vec::new();
            for (k, v) in obj {
                let dir = match v.as_i64() {
                    Some(1) => SortDir::Asc,
                    Some(-1) => SortDir::Desc,
                    _ => {
                        return Err(StoreError::BadQuery(
                            "$sort directions must be 1 or -1".into(),
                        ))
                    }
                };
                keys.push((k.clone(), dir));
            }
            Stage::Sort(keys)
        }
        "$skip" => Stage::Skip(
            spec.as_u64()
                .ok_or_else(|| StoreError::BadQuery("$skip expects a non-negative int".into()))?
                as usize,
        ),
        "$limit" => Stage::Limit(
            spec.as_u64()
                .ok_or_else(|| StoreError::BadQuery("$limit expects a non-negative int".into()))?
                as usize,
        ),
        "$count" => Stage::Count(
            spec.as_str()
                .ok_or_else(|| StoreError::BadQuery("$count expects a field name".into()))?
                .to_string(),
        ),
        other => return Err(StoreError::BadQuery(format!("unknown stage {other}"))),
    })
}

/// Execute a parsed pipeline over a document stream.
///
/// The stream is a set of shared [`Arc<Document>`] handles: stages that
/// merely route documents (`$match`, `$sort`, `$skip`, `$limit`, `$group`
/// membership) move pointers, and only stages that synthesize new
/// documents (`$project`, `$unwind`, `$group` rows, `$count`) allocate.
pub fn run_pipeline(docs: Docs, stages: &[Stage]) -> Result<Docs> {
    let mut stream = docs;
    for stage in stages {
        stream = run_stage(stream, stage)?;
    }
    Ok(stream)
}

/// Apply one stage to the stream. Per-stage artifacts — compiled filters,
/// compiled projections and sort keys — are built once here, before any
/// per-document loop runs, and `$unwind`/`$group` paths were split when
/// the pipeline was parsed, so the loops themselves do pure traversal.
fn run_stage(stream: Docs, stage: &Stage) -> Result<Docs> {
    Ok(match stage {
        Stage::Match(f) => {
            // The shared match scan, as a collection's find runs it.
            let cf = f.compile();
            crate::collection::filter_matches(
                &[stream.into()],
                &cf,
                crate::collection::UNBOUNDED,
                Arc::clone,
            )
        }
        Stage::Project(paths) => {
            let proj = CompiledProjection::compile(paths);
            stream
                .iter()
                .map(|d| Arc::new(proj.project_one(d)))
                .collect()
        }
        Stage::Unwind(path) => {
            let mut out = Vec::new();
            for doc in stream {
                match path.get(&doc) {
                    Some(Value::Array(items)) => {
                        for item in items {
                            // mp-lint: allow(H001) — $unwind synthesizes one new document per array element by definition; the copies are the stage's output.
                            let mut copy = (*doc).clone();
                            // mp-lint: allow(H001) — the element value becomes the unwound copy's field; one owned value per output document.
                            let item = item.clone();
                            path.set(&mut copy, item).map_err(StoreError::BadQuery)?;
                            out.push(Arc::new(copy));
                        }
                    }
                    Some(_) => out.push(doc), // scalar passes through
                    None => {}                // missing drops the doc
                }
            }
            out
        }
        Stage::Group { key, accumulators } => {
            let mut groups: BTreeMap<OrderedValue, Docs> = BTreeMap::new();
            for doc in stream {
                let k = key.as_ref().and_then(|path| path.get(&doc));
                let k = k.cloned().unwrap_or(Value::Null);
                groups.entry(OrderedValue(k)).or_default().push(doc);
            }
            let mut out = Vec::with_capacity(groups.len());
            for (k, members) in groups {
                let mut row = Map::with_capacity(accumulators.len() + 1);
                row.insert("_id".into(), k.0);
                for (field, acc, input) in accumulators {
                    // mp-lint: allow(H001) — one owned field name per output row; the row is the stage's product, not per-document scratch.
                    let field = field.clone();
                    row.insert(field, accumulate(*acc, input.as_ref(), &members));
                }
                out.push(Arc::new(Value::Object(row)));
            }
            out
        }
        Stage::Sort(keys) => {
            let mut spec = FindOptions::all();
            spec.sort = keys.clone();
            let copts = spec.compile();
            let mut s = stream;
            s.sort_by(|a, b| copts.cmp_docs(a, b));
            s
        }
        Stage::Skip(n) => stream.into_iter().skip(*n).collect(),
        Stage::Limit(n) => stream.into_iter().take(*n).collect(),
        Stage::Count(field) => {
            vec![Arc::new(json!({ field.as_str(): stream.len() }))]
        }
    })
}

fn accumulate(acc: Accumulator, input: Option<&Path>, members: &[Arc<Document>]) -> Value {
    let values: Vec<&Value> = members
        .iter()
        .filter_map(|d| input.and_then(|path| path.get(d)))
        .collect();
    match acc {
        Accumulator::Count => json!(members.len()),
        Accumulator::Sum => {
            if input.is_none() {
                // `$sum: 1` idiom.
                json!(members.len())
            } else {
                let s: f64 = values.iter().filter_map(|v| v.as_f64()).sum();
                number(s)
            }
        }
        Accumulator::Avg => {
            let nums: Vec<f64> = values.iter().filter_map(|v| v.as_f64()).collect();
            if nums.is_empty() {
                Value::Null
            } else {
                json!(nums.iter().sum::<f64>() / nums.len() as f64)
            }
        }
        Accumulator::Min => values
            .iter()
            .min_by(|a, b| cmp_values(a, b))
            .map(|&v| v.clone()) // mp-lint: allow(H001) — one owned winning value per group is the accumulator's output
            .unwrap_or(Value::Null),
        Accumulator::Max => values
            .iter()
            .max_by(|a, b| cmp_values(a, b))
            .map(|&v| v.clone()) // mp-lint: allow(H001) — one owned winning value per group is the accumulator's output
            .unwrap_or(Value::Null),
        Accumulator::Push => json!(values),
        // mp-lint: allow(H001) — one owned first value per group is the accumulator's output
        Accumulator::First => values.first().map(|&v| v.clone()).unwrap_or(Value::Null),
    }
}

fn number(x: f64) -> Value {
    if x.fract() == 0.0 && x.abs() < 9e15 {
        json!(x as i64)
    } else {
        json!(x)
    }
}

impl crate::collection::Collection {
    /// Run an aggregation pipeline over this collection.
    pub fn aggregate(&self, pipeline: &Value) -> Result<Docs> {
        let stages = parse_pipeline(pipeline)?;
        // A leading $match can use the index-assisted find path.
        if let Some((Stage::Match(_), rest)) = stages.split_first() {
            if let Some(first) = pipeline.as_array().and_then(|a| a.first()) {
                let docs = self.find(&first["$match"])?;
                return run_pipeline(docs, rest);
            }
        }
        run_pipeline(self.dump(), &stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;

    fn db() -> Database {
        let db = Database::new();
        let mats = db.collection("materials");
        mats.insert_many(vec![
            json!({"_id": 1, "chemsys": "Fe-O", "gap": 2.0, "elements": ["Fe", "O"], "nsites": 10}),
            json!({"_id": 2, "chemsys": "Fe-O", "gap": 0.0, "elements": ["Fe", "O"], "nsites": 4}),
            json!({"_id": 3, "chemsys": "Li-O", "gap": 5.1, "elements": ["Li", "O"], "nsites": 8}),
            json!({"_id": 4, "chemsys": "Li-O", "gap": 4.9, "elements": ["Li", "O"], "nsites": 12}),
            json!({"_id": 5, "chemsys": "Co-Li-O", "gap": 2.7, "elements": ["Li", "Co", "O"], "nsites": 4}),
        ])
        .unwrap();
        db
    }

    #[test]
    fn match_group_avg() {
        // Average gap per chemical system — a web-UI statistics panel.
        let out = db()
            .collection("materials")
            .aggregate(&json!([
                {"$match": {"gap": {"$gt": 0.0}}},
                {"$group": {"_id": "$chemsys", "avg_gap": {"$avg": "$gap"}, "n": {"$sum": 1}}},
                {"$sort": {"_id": 1}},
            ]))
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0]["_id"], "Co-Li-O");
        assert_eq!(out[1]["_id"], "Fe-O");
        assert_eq!(out[1]["n"], 1);
        let li_o = &out[2];
        assert!((li_o["avg_gap"].as_f64().unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(li_o["n"], 2);
    }

    #[test]
    fn unwind_counts_element_occurrences() {
        // Element prevalence across the database.
        let out = db()
            .collection("materials")
            .aggregate(&json!([
                {"$unwind": "$elements"},
                {"$group": {"_id": "$elements", "count": {"$sum": 1}}},
                {"$sort": {"count": -1, "_id": 1}},
            ]))
            .unwrap();
        assert_eq!(out[0]["_id"], "O");
        assert_eq!(out[0]["count"], 5);
        let li = out.iter().find(|r| r["_id"] == "Li").unwrap();
        assert_eq!(li["count"], 3);
    }

    #[test]
    fn min_max_push_first() {
        let out = db()
            .collection("materials")
            .aggregate(&json!([
                {"$group": {"_id": null,
                             "min_gap": {"$min": "$gap"},
                             "max_gap": {"$max": "$gap"},
                             "gaps": {"$push": "$gap"},
                             "first_sys": {"$first": "$chemsys"}}},
            ]))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0]["min_gap"], json!(0.0));
        assert_eq!(out[0]["max_gap"], json!(5.1));
        assert_eq!(out[0]["gaps"].as_array().unwrap().len(), 5);
        assert!(out[0]["first_sys"].is_string());
    }

    #[test]
    fn project_sort_skip_limit() {
        let out = db()
            .collection("materials")
            .aggregate(&json!([
                {"$project": {"gap": 1}},
                {"$sort": {"gap": -1}},
                {"$skip": 1},
                {"$limit": 2},
            ]))
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0]["gap"], json!(4.9));
        assert!(out[0].get("chemsys").is_none());
    }

    #[test]
    fn count_stage() {
        let out = db()
            .collection("materials")
            .aggregate(&json!([
                {"$match": {"elements": "Li"}},
                {"$count": "n_li"},
            ]))
            .unwrap();
        assert_eq!(out, crate::value::to_docs(vec![json!({"n_li": 3})]));
    }

    #[test]
    fn sum_of_field() {
        let out = db()
            .collection("materials")
            .aggregate(&json!([
                {"$group": {"_id": null, "total_sites": {"$sum": "$nsites"}}},
            ]))
            .unwrap();
        assert_eq!(out[0]["total_sites"], json!(38));
    }

    #[test]
    fn invalid_pipelines_rejected() {
        let c = db();
        let mats = c.collection("materials");
        assert!(mats.aggregate(&json!({"not": "array"})).is_err());
        assert!(mats.aggregate(&json!([{"$evil": {}}])).is_err());
        assert!(mats.aggregate(&json!([{"$sort": {"x": 2}}])).is_err());
        assert!(mats
            .aggregate(&json!([{"$group": {"_id": "$x", "v": {"$median": "$y"}}}]))
            .is_err());
        assert!(mats
            .aggregate(&json!([{"$match": {}, "$limit": 1}]))
            .is_err());
    }

    #[test]
    fn unwind_missing_field_drops_doc() {
        let out = db()
            .collection("materials")
            .aggregate(&json!([{"$unwind": "$nonexistent"}]))
            .unwrap();
        assert!(out.is_empty());
    }
}
