//! Update documents: MongoDB's atomic update operators.
//!
//! The paper's FireWorks `Fuse` objects express parameter overrides "as a
//! Python dict that is similar to Mongo atomic update syntax (e.g. $set,
//! $unset, etc.)" — this module is that syntax.

use crate::error::{Result, StoreError};
use crate::key;
use crate::value::{cmp_values, type_name, values_equal, Path};
use serde_json::{Number, Value};
use std::cmp::Ordering;

/// A parsed update: either operator-based mutations or full replacement.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// Replace the whole document, keeping its `_id` (a replacement that
    /// names a different one is refused, except by an upsert's insert).
    Replace(Value),
    /// Apply a list of operator mutations in order.
    Operators(Vec<UpdateOp>),
}

/// One update operator applied to one path, split when the update is
/// parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    Set(Path, Value),
    Unset(Path),
    Inc(Path, f64),
    Mul(Path, f64),
    Min(Path, Value),
    Max(Path, Value),
    Rename(Path, Path),
    /// Push one value or, with `$each`, several.
    Push(Path, Vec<Value>),
    /// Remove all elements equal to the operand.
    Pull(Path, Value),
    /// Remove first (-1) or last (1) element.
    Pop(Path, i8),
    /// Push only if not already present.
    AddToSet(Path, Vec<Value>),
    /// Set to the simulated current timestamp (seconds).
    CurrentDate(Path),
    /// Set only when the update inserts a new document (upsert).
    SetOnInsert(Path, Value),
}

impl Update {
    /// Parse a JSON update document. Documents whose keys all start with
    /// `$` are operator updates; any other object is a full replacement.
    pub fn parse(u: &Value) -> Result<Update> {
        let obj = u
            .as_object()
            .ok_or_else(|| StoreError::BadUpdate("update must be an object".into()))?;
        let any_op = obj.keys().any(|k| k.starts_with('$'));
        if !any_op {
            return Ok(Update::Replace(u.clone()));
        }
        if obj.keys().any(|k| !k.starts_with('$')) {
            return Err(StoreError::BadUpdate(
                "cannot mix operators and literal fields".into(),
            ));
        }
        let mut ops = Vec::new();
        for (op, spec) in obj {
            let fields = spec.as_object().ok_or_else(|| {
                StoreError::BadUpdate(format!("{op} expects an object of field: operand"))
            })?;
            for (path, operand) in fields {
                ops.push(parse_op(op, path, operand)?);
            }
        }
        Ok(Update::Operators(ops))
    }

    /// Apply this update to `doc` in place. `now` supplies the simulated
    /// timestamp for `$currentDate`; `inserting` enables `$setOnInsert`.
    pub fn apply(&self, doc: &mut Value, now: f64, inserting: bool) -> Result<()> {
        match self {
            Update::Replace(new_doc) => {
                // An upsert's insert may name its `_id`; nothing else may
                // change one.
                if !inserting && new_doc.get("_id").is_some() && !key::same_id(doc, new_doc) {
                    return Err(StoreError::BadUpdate(
                        "_id is immutable: the replacement names a different _id".into(),
                    ));
                }
                let id = doc.get("_id").cloned();
                *doc = new_doc.clone();
                if let (Some(id), Some(obj)) = (id, doc.as_object_mut()) {
                    obj.insert("_id".into(), id);
                }
                Ok(())
            }
            Update::Operators(ops) => {
                for op in ops {
                    apply_op(doc, op, now, inserting)?;
                }
                Ok(())
            }
        }
    }
}

fn num_of(path: &str, v: &Value) -> Result<f64> {
    v.as_f64()
        .ok_or_else(|| StoreError::BadUpdate(format!("operand for '{path}' must be numeric")))
}

fn parse_op(op: &str, path: &str, operand: &Value) -> Result<UpdateOp> {
    if path.is_empty() || path.starts_with('$') {
        return Err(StoreError::BadUpdate(format!(
            "invalid target path '{path}'"
        )));
    }
    let target = Path::new(path);
    Ok(match op {
        "$set" => UpdateOp::Set(target, operand.clone()),
        "$unset" => UpdateOp::Unset(target),
        "$inc" => UpdateOp::Inc(target, num_of(path, operand)?),
        "$mul" => UpdateOp::Mul(target, num_of(path, operand)?),
        "$min" => UpdateOp::Min(target, operand.clone()),
        "$max" => UpdateOp::Max(target, operand.clone()),
        "$rename" => {
            let to = operand
                .as_str()
                .ok_or_else(|| StoreError::BadUpdate("$rename target must be a string".into()))?;
            UpdateOp::Rename(target, Path::new(to))
        }
        "$push" => {
            if let Some(each) = operand.get("$each") {
                let items = each
                    .as_array()
                    .ok_or_else(|| StoreError::BadUpdate("$each expects an array".into()))?;
                UpdateOp::Push(target, items.clone())
            } else {
                UpdateOp::Push(target, vec![operand.clone()])
            }
        }
        "$pull" => UpdateOp::Pull(target, operand.clone()),
        "$pop" => {
            let n = operand
                .as_i64()
                .ok_or_else(|| StoreError::BadUpdate("$pop expects 1 or -1".into()))?;
            if n != 1 && n != -1 {
                return Err(StoreError::BadUpdate("$pop expects 1 or -1".into()));
            }
            UpdateOp::Pop(target, n as i8)
        }
        "$addToSet" => {
            if let Some(each) = operand.get("$each") {
                let items = each
                    .as_array()
                    .ok_or_else(|| StoreError::BadUpdate("$each expects an array".into()))?;
                UpdateOp::AddToSet(target, items.clone())
            } else {
                UpdateOp::AddToSet(target, vec![operand.clone()])
            }
        }
        "$currentDate" => UpdateOp::CurrentDate(target),
        "$setOnInsert" => UpdateOp::SetOnInsert(target, operand.clone()),
        other => {
            return Err(StoreError::BadUpdate(format!(
                "unknown update operator {other}"
            )))
        }
    })
}

fn json_num(x: f64) -> Value {
    if x.fract() == 0.0 && x.abs() < 9e15 {
        Value::Number(Number::from(x as i64))
    } else {
        Number::from_f64(x)
            .map(Value::Number)
            .unwrap_or(Value::Null)
    }
}

fn apply_op(doc: &mut Value, op: &UpdateOp, now: f64, inserting: bool) -> Result<()> {
    let set =
        |doc: &mut Value, path: &Path, v: Value| path.set(doc, v).map_err(StoreError::BadUpdate);
    match op {
        UpdateOp::Set(path, v) => set(doc, path, v.clone())?,
        UpdateOp::Unset(path) => {
            path.remove(doc);
        }
        UpdateOp::Inc(path, d) => {
            let cur = path.get(doc).and_then(Value::as_f64).unwrap_or(0.0);
            set(doc, path, json_num(cur + d))?;
        }
        UpdateOp::Mul(path, m) => {
            let cur = path.get(doc).and_then(Value::as_f64).unwrap_or(0.0);
            set(doc, path, json_num(cur * m))?;
        }
        UpdateOp::Min(path, v) => match path.get(doc) {
            Some(cur) if cmp_values(cur, v) != Ordering::Greater => {}
            _ => set(doc, path, v.clone())?,
        },
        UpdateOp::Max(path, v) => match path.get(doc) {
            Some(cur) if cmp_values(cur, v) != Ordering::Less => {}
            _ => set(doc, path, v.clone())?,
        },
        UpdateOp::Rename(from, to) => {
            if let Some(v) = from.remove(doc) {
                set(doc, to, v)?;
            }
        }
        UpdateOp::Push(path, items) => {
            let arr = ensure_array(doc, path)?;
            arr.extend(items.iter().cloned());
        }
        UpdateOp::Pull(path, operand) => {
            if let Some(Value::Array(arr)) = path.get_mut(doc) {
                arr.retain(|e| !values_equal(e, operand));
            }
        }
        UpdateOp::Pop(path, dir) => {
            if let Some(Value::Array(arr)) = path.get_mut(doc) {
                if !arr.is_empty() {
                    if *dir == 1 {
                        arr.pop();
                    } else {
                        arr.remove(0);
                    }
                }
            }
        }
        UpdateOp::AddToSet(path, items) => {
            let arr = ensure_array(doc, path)?;
            for item in items {
                if !arr.iter().any(|e| values_equal(e, item)) {
                    arr.push(item.clone());
                }
            }
        }
        UpdateOp::CurrentDate(path) => set(doc, path, json_num(now))?,
        UpdateOp::SetOnInsert(path, v) => {
            if inserting {
                set(doc, path, v.clone())?;
            }
        }
    }
    Ok(())
}

/// Resolve `path` to a mutable array, creating an empty one (or failing on
/// a non-array) as MongoDB does for `$push` on a missing field.
fn ensure_array<'a>(doc: &'a mut Value, path: &Path) -> Result<&'a mut Vec<Value>> {
    if path.get(doc).is_none() {
        path.set(doc, Value::Array(vec![]))
            .map_err(StoreError::BadUpdate)?;
    }
    match path.get_mut(doc) {
        Some(Value::Array(a)) => Ok(a),
        Some(other) => Err(StoreError::BadUpdate(format!(
            "field '{path}' is {} not an array",
            type_name(other)
        ))),
        None => Err(StoreError::BadUpdate(format!(
            "could not create array at '{path}'"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn apply(u: Value, mut doc: Value) -> Value {
        Update::parse(&u)
            .unwrap()
            .apply(&mut doc, 1000.0, false)
            .unwrap();
        doc
    }

    #[test]
    fn set_and_nested_set() {
        assert_eq!(
            apply(json!({"$set": {"a": 2}}), json!({"a": 1})),
            json!({"a": 2})
        );
        assert_eq!(
            apply(json!({"$set": {"spec.walltime": 3600}}), json!({})),
            json!({"spec": {"walltime": 3600}})
        );
    }

    #[test]
    fn unset() {
        assert_eq!(
            apply(json!({"$unset": {"a": ""}}), json!({"a": 1, "b": 2})),
            json!({"b": 2})
        );
    }

    #[test]
    fn inc_existing_and_missing() {
        assert_eq!(
            apply(json!({"$inc": {"n": 5}}), json!({"n": 1})),
            json!({"n": 6})
        );
        assert_eq!(apply(json!({"$inc": {"n": 5}}), json!({})), json!({"n": 5}));
        assert_eq!(
            apply(json!({"$inc": {"n": 0.5}}), json!({"n": 1})),
            json!({"n": 1.5})
        );
    }

    #[test]
    fn mul() {
        assert_eq!(
            apply(json!({"$mul": {"n": 3}}), json!({"n": 4})),
            json!({"n": 12})
        );
        assert_eq!(apply(json!({"$mul": {"n": 3}}), json!({})), json!({"n": 0}));
    }

    #[test]
    fn min_max() {
        assert_eq!(
            apply(json!({"$min": {"n": 2}}), json!({"n": 5})),
            json!({"n": 2})
        );
        assert_eq!(
            apply(json!({"$min": {"n": 9}}), json!({"n": 5})),
            json!({"n": 5})
        );
        assert_eq!(
            apply(json!({"$max": {"n": 9}}), json!({"n": 5})),
            json!({"n": 9})
        );
        assert_eq!(apply(json!({"$max": {"n": 2}}), json!({})), json!({"n": 2}));
    }

    #[test]
    fn rename() {
        assert_eq!(
            apply(json!({"$rename": {"old": "new"}}), json!({"old": 7})),
            json!({"new": 7})
        );
        // Renaming a missing field is a no-op.
        assert_eq!(
            apply(json!({"$rename": {"x": "y"}}), json!({"a": 1})),
            json!({"a": 1})
        );
    }

    #[test]
    fn push_single_and_each() {
        assert_eq!(
            apply(json!({"$push": {"xs": 3}}), json!({"xs": [1]})),
            json!({"xs": [1, 3]})
        );
        assert_eq!(
            apply(json!({"$push": {"xs": 3}}), json!({})),
            json!({"xs": [3]})
        );
        assert_eq!(
            apply(
                json!({"$push": {"xs": {"$each": [2, 3]}}}),
                json!({"xs": [1]})
            ),
            json!({"xs": [1, 2, 3]})
        );
    }

    #[test]
    fn push_on_scalar_fails() {
        let u = Update::parse(&json!({"$push": {"x": 1}})).unwrap();
        let mut doc = json!({"x": 5});
        assert!(u.apply(&mut doc, 0.0, false).is_err());
    }

    #[test]
    fn pull_and_pop() {
        assert_eq!(
            apply(json!({"$pull": {"xs": 2}}), json!({"xs": [1, 2, 3, 2]})),
            json!({"xs": [1, 3]})
        );
        assert_eq!(
            apply(json!({"$pop": {"xs": 1}}), json!({"xs": [1, 2]})),
            json!({"xs": [1]})
        );
        assert_eq!(
            apply(json!({"$pop": {"xs": -1}}), json!({"xs": [1, 2]})),
            json!({"xs": [2]})
        );
    }

    #[test]
    fn add_to_set() {
        assert_eq!(
            apply(json!({"$addToSet": {"xs": 2}}), json!({"xs": [1, 2]})),
            json!({"xs": [1, 2]})
        );
        assert_eq!(
            apply(json!({"$addToSet": {"xs": 3}}), json!({"xs": [1, 2]})),
            json!({"xs": [1, 2, 3]})
        );
    }

    #[test]
    fn current_date_uses_sim_clock() {
        assert_eq!(
            apply(json!({"$currentDate": {"ts": true}}), json!({})),
            json!({"ts": 1000})
        );
    }

    #[test]
    fn set_on_insert_only_when_inserting() {
        let u = Update::parse(&json!({"$setOnInsert": {"a": 1}})).unwrap();
        let mut d1 = json!({});
        u.apply(&mut d1, 0.0, true).unwrap();
        assert_eq!(d1, json!({"a": 1}));
        let mut d2 = json!({});
        u.apply(&mut d2, 0.0, false).unwrap();
        assert_eq!(d2, json!({}));
    }

    #[test]
    fn replacement_preserves_id() {
        let mut doc = json!({"_id": "x1", "a": 1});
        Update::parse(&json!({"b": 2}))
            .unwrap()
            .apply(&mut doc, 0.0, false)
            .unwrap();
        assert_eq!(doc, json!({"_id": "x1", "b": 2}));
    }

    /// An index past MongoDB's backfill limit is refused, not padded:
    /// one `$set` cannot make the store allocate gigabytes of nulls. A
    /// small index still pads.
    #[test]
    fn set_refuses_a_backfill_past_the_limit() {
        let u = Update::parse(&json!({"$set": {"xs.1500001": 1}})).unwrap();
        let mut doc = json!({});
        assert!(matches!(
            u.apply(&mut doc, 0.0, false),
            Err(StoreError::BadUpdate(_))
        ));
        assert_eq!(
            apply(json!({"$set": {"xs.2": 1}}), json!({})),
            json!({"xs": [null, null, 1]})
        );
    }

    #[test]
    fn mixed_ops_and_literals_rejected() {
        assert!(Update::parse(&json!({"$set": {"a": 1}, "b": 2})).is_err());
    }

    #[test]
    fn unknown_operator_rejected() {
        assert!(Update::parse(&json!({"$evil": {"a": 1}})).is_err());
    }

    #[test]
    fn multiple_operators_apply_in_order() {
        let out = apply(
            json!({"$inc": {"n": 1}, "$push": {"log": "retried"}}),
            json!({"n": 0}),
        );
        assert_eq!(out, json!({"n": 1, "log": ["retried"]}));
    }
}
