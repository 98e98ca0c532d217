//! The LaunchPad: workflow state persisted in the datastore.
//!
//! This is the heart of the paper's first contribution: the datastore
//! "manag[es] the state of high-throughput calculations". Queue entries
//! live in the `engines` collection ("jobs that are waiting to be run,
//! running, and completed"), results in `tasks`, DAG metadata in
//! `workflows`, and the dedup registry in `binders`. Workers claim jobs
//! with an atomic find-and-modify, and job selection is an arbitrary
//! Mongo query over the job inputs (§III-B2).

use crate::firework::{Firework, FuseCondition, FwState, Stage, Workflow};
use mp_docstore::{Database, Docs, Document, FindOptions, Result, SortDir, StoreError};
use mp_sync::{LockRank, OrderedMutex};
use serde_json::{json, Value};
use std::sync::Arc;

/// What a worker reports after executing a claimed firework. The
/// *Analyzer* (arbitrary code run after completion, §III-C2) decides
/// which variant to send.
#[derive(Debug, Clone)]
pub enum LaunchReport {
    /// Job finished; store its reduced output document.
    Success {
        /// The reduced result (from the FireWorks Analyzer data
        /// reduction).
        task_doc: Value,
    },
    /// Re-run the same job with updated spec (machine failure /
    /// walltime kill — §III-C3 "Re-runs").
    Rerun {
        /// Mongo-update-style changes to the spec.
        spec_updates: Value,
        /// Why (recorded for analysis).
        reason: String,
    },
    /// Replace this job with a modified copy and continue the workflow
    /// (§III-C3 "Detours").
    Detour {
        /// Mongo-update-style changes to the spec.
        spec_updates: Value,
        /// Why (recorded for analysis).
        reason: String,
    },
    /// Beyond automated repair: fizzle and flag for manual intervention.
    Fatal {
        /// Why.
        reason: String,
    },
    /// The job never actually ran (queue rejection, allocation expired
    /// before it started): return it to READY *without* consuming a
    /// launch attempt.
    Release {
        /// Why.
        reason: String,
    },
}

/// What the launchpad did with a report.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportOutcome {
    /// Task stored; children promoted.
    Completed,
    /// Firework re-queued (attempt count returned).
    Requeued(u32),
    /// A detour firework was created (its id returned).
    Detoured(String),
    /// Firework fizzled; workflow flagged for a human.
    Fizzled,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct LaunchPadConfig {
    /// Max launches per firework before a rerun request fizzles it.
    pub max_launches: u32,
    /// Max detours per firework before a detour request fizzles it.
    pub max_detours: u32,
    /// Run the `mp-lint` workflow analyzer as a hard gate in
    /// [`LaunchPad::add_workflow`] (escape hatch: set false to submit
    /// workflows the analyzer would reject).
    pub lint_gate: bool,
}

impl Default for LaunchPadConfig {
    fn default() -> Self {
        LaunchPadConfig {
            max_launches: 5,
            max_detours: 4,
            lint_gate: true,
        }
    }
}

/// The datastore-backed workflow engine.
pub struct LaunchPad {
    db: Database,
    config: LaunchPadConfig,
    /// Serializes the multi-operation claim transaction in
    /// [`claim_next`](Self::claim_next): the READY→RUNNING flip, the
    /// late-dedup binder lookup, and the running-twin check are several
    /// store operations, and without this outermost lock two workers can
    /// both pass the twin check and compute the same binder twice.
    /// Rank `LaunchPad` — held across `Database`/`Collection` locks.
    claim_lock: OrderedMutex<()>,
}

impl LaunchPad {
    /// Wrap a database, creating the indexes the hot queries need.
    pub fn new(db: Database) -> Result<LaunchPad> {
        Self::with_config(db, LaunchPadConfig::default())
    }

    /// Wrap with explicit configuration.
    pub fn with_config(db: Database, config: LaunchPadConfig) -> Result<LaunchPad> {
        let engines = db.collection("engines");
        engines.create_index("state", false)?;
        engines.create_index("wf_id", false)?;
        let binders = db.collection("binders");
        binders.create_index("key", true)?;
        db.collection("tasks").create_index("fw_id", false)?;
        Ok(LaunchPad {
            db,
            config,
            claim_lock: OrderedMutex::new(LockRank::LaunchPad, ()),
        })
    }

    /// The underlying database (shared with analytics and the web API).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Submit a workflow: every firework becomes an `engines` document,
    /// roots READY, the rest WAITING. Duplicate binders short-circuit
    /// immediately to ARCHIVED-with-pointer.
    ///
    /// With `config.lint_gate` (the default), the `mp-lint` workflow
    /// analyzer runs first and Error-severity findings (cycles, unknown
    /// parents, duplicate ids, fuse inconsistencies) reject the
    /// submission with the rendered diagnostics.
    pub fn add_workflow(&self, wf: &Workflow) -> Result<()> {
        if self.config.lint_gate {
            let diags = mp_lint::analyze_workflow(&Self::lint_nodes(wf));
            if mp_lint::has_errors(&diags) {
                return Err(StoreError::InvalidDocument(mp_lint::render(&diags)));
            }
        }
        wf.validate().map_err(StoreError::InvalidDocument)?;
        self.db.collection("workflows").insert_one(json!({
            "_id": wf.wf_id,
            "name": wf.name,
            "state": "ACTIVE",
            "approved": false,
            "fw_ids": wf.fireworks.iter().map(|f| f.fw_id.clone()).collect::<Vec<_>>(),
        }))?;
        let engines = self.db.collection("engines");
        for fw in &wf.fireworks {
            let state = if fw.parents.is_empty() {
                FwState::Ready
            } else {
                FwState::Waiting
            };
            engines.insert_one(self.engine_doc(wf, fw, state))?;
        }
        // Root-level dedup check.
        for fw in &wf.fireworks {
            if fw.parents.is_empty() {
                self.try_dedup(&fw.fw_id)?;
            }
        }
        Ok(())
    }

    /// Reduce fireworks to the generic node shape the lint analyzer takes.
    fn lint_nodes(wf: &Workflow) -> Vec<mp_lint::WfNode> {
        wf.fireworks
            .iter()
            .map(|fw| mp_lint::WfNode {
                id: fw.fw_id.clone(),
                name: fw.name.clone(),
                parents: fw.parents.clone(),
                binder_key: fw.binder.as_ref().map(|b| b.key.clone()),
                fuse_filter: match &fw.fuse.condition {
                    FuseCondition::ParentOutputMatches { filter } => Some(filter.clone()),
                    _ => None,
                },
                fuse_requires_parent_output: matches!(
                    fw.fuse.condition,
                    FuseCondition::ParentOutputMatches { .. }
                ),
            })
            .collect()
    }

    fn engine_doc(&self, wf: &Workflow, fw: &Firework, state: FwState) -> Value {
        let children: Vec<&str> = wf
            .children_of(&fw.fw_id)
            .iter()
            .map(|c| c.fw_id.as_str())
            .collect();
        json!({
            "_id": fw.fw_id,
            "wf_id": wf.wf_id,
            "name": fw.name,
            "state": state.as_str(),
            "spec": fw.stage.0,
            "binder": fw.binder.as_ref().map(|b| b.key.clone()),
            "fuse": serde_json::to_value(&fw.fuse).expect("fuse serializes"),
            "parents": fw.parents,
            "children": children,
            "launches": fw.launches,
            "detours": 0,
            "worker": null,
            "history": [],
        })
    }

    /// If this firework's binder already has a registered result, archive
    /// it with a pointer (the paper's duplicate replacement). Returns
    /// true when deduplicated.
    fn try_dedup(&self, fw_id: &str) -> Result<bool> {
        let engines = self.db.collection("engines");
        let Some(doc) = engines.find_one(&json!({"_id": fw_id}))? else {
            return Ok(false);
        };
        let Some(key) = doc["binder"].as_str() else {
            return Ok(false);
        };
        let binders = self.db.collection("binders");
        if let Some(existing) = binders.find_one(&json!({"key": key}))? {
            let task_id = existing["task_id"].clone();
            engines.update_one(
                &json!({"_id": fw_id}),
                &json!({"$set": {
                    "state": "ARCHIVED",
                    "duplicate_of": task_id,
                }}),
            )?;
            self.promote_children(fw_id)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Atomically claim the next READY firework matching `extra_query`
    /// (a Mongo filter over the engine doc, e.g.
    /// `{"spec.elements": {"$all": ["Li","O"]}}`). Highest-priority =
    /// fewest launches first, then insertion order.
    // mp-lint: allow(E003) — the claim lock exists precisely to
    // serialize claimants across the find-and-modify + dedup sequence;
    // scatter workers inside the store never take LaunchPad-rank locks.
    pub fn claim_next(&self, extra_query: &Value, worker: &str) -> Result<Option<Arc<Document>>> {
        // mp-lint: allow(L003) — holding rank LaunchPad across store
        // operations is exactly what the rank table sanctions here.
        let _claim = self.claim_lock.lock();
        let engines = self.db.collection("engines");
        // Fireworks deferred within this call because an identical job
        // (same binder) is currently running — they stay READY and will
        // resolve to pointers once the running twin completes.
        let mut deferred: Vec<Value> = Vec::new();
        loop {
            let mut filter = json!({"state": "READY"});
            if let (Some(fm), Some(em)) = (filter.as_object_mut(), extra_query.as_object()) {
                for (k, v) in em {
                    fm.insert(k.clone(), v.clone());
                }
            }
            if !deferred.is_empty() {
                filter["_id"] = json!({"$nin": deferred});
            }
            let claimed = engines.find_one_and_update(
                &filter,
                &json!({"$set": {"state": "RUNNING", "worker": worker}, "$inc": {"launches": 1}}),
                Some(&FindOptions::all().sort_by("launches", SortDir::Asc)),
                true,
            )?;
            let Some(doc) = claimed else {
                return Ok(None);
            };
            if let Some(key) = doc["binder"].as_str() {
                let fw_id = doc["_id"].as_str().expect("fw id").to_string();
                // Late dedup: a concurrent identical job may have
                // completed since this one became READY.
                let binders = self.db.collection("binders");
                if let Some(existing) = binders.find_one(&json!({"key": key}))? {
                    engines.update_one(
                        &json!({"_id": fw_id}),
                        &json!({"$set": {"state": "ARCHIVED", "duplicate_of": existing["task_id"]}}),
                    )?;
                    self.promote_children(&fw_id)?;
                    continue; // claim another
                }
                // An identical job is running right now: defer this one
                // rather than computing it twice.
                let twin_running = engines.count(&json!({
                    "binder": key, "state": "RUNNING", "_id": {"$ne": fw_id}
                }))?;
                if twin_running > 0 {
                    engines.update_one(
                        &json!({"_id": fw_id}),
                        &json!({"$set": {"state": "READY", "worker": null},
                                "$inc": {"launches": -1}}),
                    )?;
                    deferred.push(json!(fw_id));
                    continue;
                }
            }
            return Ok(Some(doc));
        }
    }

    /// Handle a worker's report for a RUNNING firework.
    pub fn report(&self, fw_id: &str, report: LaunchReport) -> Result<ReportOutcome> {
        let engines = self.db.collection("engines");
        let doc = engines
            .find_one(&json!({"_id": fw_id}))?
            .ok_or_else(|| StoreError::NoSuchCollection(format!("firework {fw_id}")))?;
        match report {
            LaunchReport::Success { mut task_doc } => {
                let launch = doc["launches"].as_u64().unwrap_or(1);
                let task_id = format!("task-{fw_id}-{launch}");
                if let Some(obj) = task_doc.as_object_mut() {
                    obj.insert("_id".into(), json!(task_id));
                    obj.insert("fw_id".into(), json!(fw_id));
                    obj.insert("wf_id".into(), doc["wf_id"].clone());
                    obj.insert("launch".into(), json!(launch));
                }
                self.db.collection("tasks").insert_one(task_doc)?;
                // Register the binder so future duplicates point here.
                if let Some(key) = doc["binder"].as_str() {
                    let _ = self.db.collection("binders").insert_one(json!({
                        "key": key,
                        "task_id": task_id,
                        "fw_id": fw_id,
                    }));
                }
                engines.update_one(
                    &json!({"_id": fw_id}),
                    &json!({"$set": {"state": "COMPLETED", "task_id": task_id},
                            "$push": {"history": {"event": "completed", "launch": launch}}}),
                )?;
                self.promote_children(fw_id)?;
                Ok(ReportOutcome::Completed)
            }
            LaunchReport::Rerun {
                spec_updates,
                reason,
            } => {
                let launches = doc["launches"].as_u64().unwrap_or(0) as u32;
                if launches >= self.config.max_launches {
                    return self.fizzle(fw_id, &format!("max launches exceeded: {reason}"));
                }
                let mut stage = Stage(doc["spec"].clone());
                stage
                    .apply_overrides(&spec_updates)
                    .map_err(StoreError::BadUpdate)?;
                engines.update_one(
                    &json!({"_id": fw_id}),
                    &json!({"$set": {"state": "READY", "spec": stage.0, "worker": null},
                            "$push": {"history": {"event": "rerun", "reason": reason,
                                                   "updates": spec_updates}}}),
                )?;
                Ok(ReportOutcome::Requeued(launches))
            }
            LaunchReport::Detour {
                spec_updates,
                reason,
            } => {
                let detours = doc["detours"].as_u64().unwrap_or(0) as u32;
                if detours >= self.config.max_detours {
                    return self.fizzle(fw_id, &format!("max detours exceeded: {reason}"));
                }
                let mut stage = Stage(doc["spec"].clone());
                stage
                    .apply_overrides(&spec_updates)
                    .map_err(StoreError::BadUpdate)?;
                // The detour inherits identity (binder continues to refer
                // to the same logical calculation) but is a fresh engine
                // entry; children are re-parented onto it.
                let base_id = doc
                    .get("detour_of")
                    .and_then(Value::as_str)
                    .unwrap_or(fw_id)
                    .to_string();
                let new_id = format!("{base_id}-d{}", detours + 1);
                let mut new_doc = (*doc).clone();
                if let Some(obj) = new_doc.as_object_mut() {
                    obj.insert("_id".into(), json!(new_id));
                    obj.insert("state".into(), json!("READY"));
                    obj.insert("spec".into(), stage.0);
                    obj.insert("worker".into(), Value::Null);
                    obj.insert("detours".into(), json!(detours + 1));
                    obj.insert("detour_of".into(), json!(base_id));
                    obj.insert(
                        "history".into(),
                        json!([{"event": "detour", "reason": reason, "updates": spec_updates,
                                "from": fw_id}]),
                    );
                }
                engines.insert_one(new_doc)?;
                engines.update_one(
                    &json!({"_id": fw_id}),
                    &json!({"$set": {"state": "ARCHIVED", "replaced_by": new_id}}),
                )?;
                // Re-parent the failed firework's children onto the
                // detour so the rest of the workflow "should be the
                // same" (§III-C3).
                for child_id in self.child_ids(fw_id)? {
                    engines.update_one(
                        &json!({"_id": child_id}),
                        &json!({"$pull": {"parents": fw_id},
                                "$addToSet": {"parents": new_id}}),
                    )?;
                }
                Ok(ReportOutcome::Detoured(new_id))
            }
            LaunchReport::Fatal { reason } => self.fizzle(fw_id, &reason),
            LaunchReport::Release { reason } => {
                engines.update_one(
                    &json!({"_id": fw_id}),
                    &json!({"$set": {"state": "READY", "worker": null},
                            "$inc": {"launches": -1},
                            "$push": {"history": {"event": "released", "reason": reason}}}),
                )?;
                let launches = doc["launches"].as_u64().unwrap_or(1).saturating_sub(1) as u32;
                Ok(ReportOutcome::Requeued(launches))
            }
        }
    }

    /// Ids of fireworks that listed `fw_id` as a parent, recorded in the
    /// engine document at submission time (the submitted topology is
    /// immutable, so this survives re-parenting).
    fn child_ids(&self, fw_id: &str) -> Result<Vec<String>> {
        let engines = self.db.collection("engines");
        let Some(doc) = engines.find_one(&json!({"_id": fw_id}))? else {
            return Ok(vec![]);
        };
        Ok(doc["children"]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_str)
                    .map(String::from)
                    .collect()
            })
            .unwrap_or_default())
    }

    fn fizzle(&self, fw_id: &str, reason: &str) -> Result<ReportOutcome> {
        let engines = self.db.collection("engines");
        let doc = engines.find_one(&json!({"_id": fw_id}))?;
        engines.update_one(
            &json!({"_id": fw_id}),
            &json!({"$set": {"state": "FIZZLED", "fizzle_reason": reason}}),
        )?;
        // §III-C3: "the system needs to abort the entire workflow and
        // mark it for manual intervention."
        if let Some(doc) = doc {
            let wf_id = doc["wf_id"].clone();
            engines.update_many(
                &json!({"wf_id": wf_id, "state": {"$in": ["WAITING", "READY"]}}),
                &json!({"$set": {"state": "DEFUSED"}}),
            )?;
            self.db.collection("workflows").update_one(
                &json!({"_id": wf_id}),
                &json!({"$set": {"state": "NEEDS_HUMAN", "fizzle_reason": reason}}),
            )?;
        }
        Ok(ReportOutcome::Fizzled)
    }

    /// Promote WAITING children of `fw_id` whose parents are all
    /// terminal-successful and whose fuse condition holds.
    fn promote_children(&self, fw_id: &str) -> Result<()> {
        let engines = self.db.collection("engines");
        let children = engines.find(&json!({"parents": fw_id, "state": "WAITING"}))?;
        for child in children {
            let child_id = child["_id"].as_str().expect("engine _id").to_string();
            let parents: Vec<String> = child["parents"]
                .as_array()
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default();
            let mut all_done = true;
            for p in &parents {
                let pdoc = engines.find_one(&json!({"_id": p}))?;
                let ok = pdoc
                    .as_ref()
                    .and_then(|d| d["state"].as_str())
                    .map(|s| s == "COMPLETED" || s == "ARCHIVED")
                    .unwrap_or(false);
                if !ok {
                    all_done = false;
                    break;
                }
            }
            if !all_done {
                continue;
            }
            // Fuse condition.
            let fuse: crate::firework::Fuse =
                serde_json::from_value(child["fuse"].clone()).unwrap_or_default();
            let released = match &fuse.condition {
                FuseCondition::ParentsCompleted => true,
                FuseCondition::ParentOutputMatches { filter } => {
                    let merged = self.merged_parent_outputs(&parents)?;
                    mp_docstore::Filter::parse(filter)?
                        .compile()
                        .matches(&merged)
                }
                FuseCondition::UserApproved => {
                    let wf = self
                        .db
                        .collection("workflows")
                        .find_one(&json!({"_id": child["wf_id"]}))?;
                    wf.map(|w| w["approved"] == json!(true)).unwrap_or(false)
                }
            };
            if !released {
                continue;
            }
            // Apply fuse overrides to the spec (recorded, per the paper).
            // Overrides may reference parent outputs via
            // `{"$fromParent": "<dotted path>"}` — "overriding input
            // parameters prior to execution, based on the output state
            // of any parent jobs" (§III-C2).
            let mut update = json!({"$set": {"state": "READY"}});
            if let Some(overrides) = &fuse.overrides {
                let resolved = if contains_from_parent(overrides) {
                    let merged = self.merged_parent_outputs(&parents)?;
                    resolve_from_parent(overrides, &merged)?
                } else {
                    overrides.clone()
                };
                let mut stage = Stage(child["spec"].clone());
                stage
                    .apply_overrides(&resolved)
                    .map_err(StoreError::BadUpdate)?;
                update = json!({"$set": {"state": "READY", "spec": stage.0},
                                "$push": {"history": {"event": "fuse_overrides",
                                                       "updates": resolved}}});
            }
            engines.update_one(&json!({"_id": child_id}), &update)?;
            self.try_dedup(&child_id)?;
        }
        Ok(())
    }

    /// Merge the `output` sections of the parents' latest task docs into
    /// one document (later parents win key conflicts).
    fn merged_parent_outputs(&self, parents: &[String]) -> Result<Value> {
        let tasks = self.db.collection("tasks");
        let mut merged = json!({});
        for p in parents {
            let docs = tasks.find_with(
                &json!({"fw_id": p}),
                &FindOptions::all().sort_by("launch", SortDir::Desc).limit(1),
            )?;
            if let Some(doc) = docs.first() {
                if let (Some(m), Some(o)) = (merged.as_object_mut(), doc.as_object()) {
                    for (k, v) in o {
                        m.insert(k.clone(), v.clone());
                    }
                }
            }
        }
        Ok(merged)
    }

    /// Approve a workflow (releases `UserApproved` fuses on next
    /// promotion sweep).
    pub fn approve_workflow(&self, wf_id: &str) -> Result<()> {
        self.db
            .collection("workflows")
            .update_one(&json!({"_id": wf_id}), &json!({"$set": {"approved": true}}))?;
        // Sweep: re-promote children of every completed fw in this wf.
        let done = self
            .db
            .collection("engines")
            .find(&json!({"wf_id": wf_id, "state": {"$in": ["COMPLETED", "ARCHIVED"]}}))?;
        for d in done {
            if let Some(id) = d["_id"].as_str() {
                self.promote_children(id)?;
            }
        }
        Ok(())
    }

    /// Current state of a firework.
    pub fn state_of(&self, fw_id: &str) -> Result<Option<FwState>> {
        Ok(self
            .db
            .collection("engines")
            .find_one(&json!({"_id": fw_id}))?
            .and_then(|d| d["state"].as_str().and_then(FwState::parse)))
    }

    /// Count engines by state.
    pub fn state_counts(&self) -> Result<Vec<(String, usize)>> {
        let engines = self.db.collection("engines");
        let mut out = Vec::new();
        for s in [
            "WAITING",
            "READY",
            "RUNNING",
            "COMPLETED",
            "FIZZLED",
            "DEFUSED",
            "ARCHIVED",
        ] {
            let n = engines.count(&json!({ "state": s }))?;
            if n > 0 {
                out.push((s.to_string(), n));
            }
        }
        Ok(out)
    }

    /// Workflows flagged for manual intervention.
    pub fn needs_human(&self) -> Result<Docs> {
        self.db
            .collection("workflows")
            .find(&json!({"state": "NEEDS_HUMAN"}))
    }
}

/// Does an override document contain a `$fromParent` reference?
fn contains_from_parent(v: &Value) -> bool {
    match v {
        Value::Object(m) => m.contains_key("$fromParent") || m.values().any(contains_from_parent),
        Value::Array(a) => a.iter().any(contains_from_parent),
        _ => false,
    }
}

/// Replace every `{"$fromParent": "<path>"}` node with the value at that
/// dotted path in the merged parent-output document. A missing path is
/// an error — a workflow must not silently run with absent inputs.
fn resolve_from_parent(v: &Value, parent_outputs: &Value) -> Result<Value> {
    match v {
        Value::Object(m) => {
            if let Some(path) = m.get("$fromParent").and_then(Value::as_str) {
                if m.len() != 1 {
                    return Err(StoreError::BadUpdate(
                        "$fromParent must be the only key in its object".into(),
                    ));
                }
                return mp_docstore::value::Path::new(path)
                    .get(parent_outputs)
                    .cloned()
                    .ok_or_else(|| {
                        StoreError::BadUpdate(format!(
                            "$fromParent path '{path}' missing from parent outputs"
                        ))
                    });
            }
            let mut out = serde_json::Map::new();
            for (k, val) in m {
                out.insert(k.clone(), resolve_from_parent(val, parent_outputs)?);
            }
            Ok(Value::Object(out))
        }
        Value::Array(a) => a
            .iter()
            .map(|x| resolve_from_parent(x, parent_outputs))
            .collect::<Result<Vec<_>>>()
            .map(Value::Array),
        other => Ok(other.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firework::{Binder, Firework, Fuse, FuseCondition, Stage, Workflow};

    fn pad() -> LaunchPad {
        LaunchPad::new(Database::new()).unwrap()
    }

    fn fw(id: &str, spec: Value) -> Firework {
        Firework::new(id, id, Stage(spec))
    }

    fn chain(wf_id: &str) -> Workflow {
        let a = fw("a", json!({"step": 1}));
        let b = fw("b", json!({"step": 2})).after("a");
        let c = fw("c", json!({"step": 3})).after("b");
        Workflow::new(wf_id, vec![a, b, c]).unwrap()
    }

    #[test]
    fn submit_marks_roots_ready() {
        let lp = pad();
        lp.add_workflow(&chain("wf1")).unwrap();
        assert_eq!(lp.state_of("a").unwrap(), Some(FwState::Ready));
        assert_eq!(lp.state_of("b").unwrap(), Some(FwState::Waiting));
    }

    #[test]
    fn claim_and_complete_promotes_children() {
        let lp = pad();
        lp.add_workflow(&chain("wf1")).unwrap();
        let doc = lp.claim_next(&json!({}), "w0").unwrap().unwrap();
        assert_eq!(doc["_id"], "a");
        assert_eq!(doc["state"], "RUNNING");
        lp.report(
            "a",
            LaunchReport::Success {
                task_doc: json!({"output": {"e": -1.0}}),
            },
        )
        .unwrap();
        assert_eq!(lp.state_of("a").unwrap(), Some(FwState::Completed));
        assert_eq!(lp.state_of("b").unwrap(), Some(FwState::Ready));
        assert_eq!(lp.state_of("c").unwrap(), Some(FwState::Waiting));
    }

    #[test]
    fn claim_respects_query_on_inputs() {
        let lp = pad();
        let a = fw("li", json!({"elements": ["Li", "O"], "nelectrons": 100}));
        let b = fw("fe", json!({"elements": ["Fe", "O"], "nelectrons": 300}));
        lp.add_workflow(&Workflow::new("wf", vec![a, b]).unwrap())
            .unwrap();
        // The paper's job-selection pattern (§III-B2).
        let q = json!({"spec.elements": {"$all": ["Li", "O"]}, "spec.nelectrons": {"$lte": 200}});
        let doc = lp.claim_next(&q, "w0").unwrap().unwrap();
        assert_eq!(doc["_id"], "li");
        assert!(lp.claim_next(&q, "w0").unwrap().is_none());
    }

    #[test]
    fn claim_returns_none_when_empty() {
        let lp = pad();
        assert!(lp.claim_next(&json!({}), "w0").unwrap().is_none());
    }

    #[test]
    fn double_claim_gets_different_jobs() {
        let lp = pad();
        let a = fw("x1", json!({}));
        let b = fw("x2", json!({}));
        lp.add_workflow(&Workflow::new("wf", vec![a, b]).unwrap())
            .unwrap();
        let c1 = lp.claim_next(&json!({}), "w1").unwrap().unwrap();
        let c2 = lp.claim_next(&json!({}), "w2").unwrap().unwrap();
        assert_ne!(c1["_id"], c2["_id"]);
        assert!(lp.claim_next(&json!({}), "w3").unwrap().is_none());
    }

    #[test]
    fn rerun_requeues_with_updated_spec() {
        let lp = pad();
        lp.add_workflow(&Workflow::single("wf", fw("a", json!({"walltime": 3600}))))
            .unwrap();
        lp.claim_next(&json!({}), "w0").unwrap().unwrap();
        let out = lp
            .report(
                "a",
                LaunchReport::Rerun {
                    spec_updates: json!({"$mul": {"walltime": 2}}),
                    reason: "walltime kill".into(),
                },
            )
            .unwrap();
        assert!(matches!(out, ReportOutcome::Requeued(_)));
        let doc = lp.claim_next(&json!({}), "w0").unwrap().unwrap();
        assert_eq!(doc["spec"]["walltime"], json!(7200));
        assert_eq!(doc["launches"], json!(2));
    }

    #[test]
    fn rerun_fizzles_after_max_launches() {
        let lp = LaunchPad::with_config(
            Database::new(),
            LaunchPadConfig {
                max_launches: 2,
                max_detours: 2,
                ..LaunchPadConfig::default()
            },
        )
        .unwrap();
        lp.add_workflow(&Workflow::single("wf", fw("a", json!({}))))
            .unwrap();
        for expect_fizzle in [false, true] {
            let claimed = lp.claim_next(&json!({}), "w").unwrap();
            assert!(claimed.is_some());
            let out = lp
                .report(
                    "a",
                    LaunchReport::Rerun {
                        spec_updates: json!({"$set": {"retry": true}}),
                        reason: "kill".into(),
                    },
                )
                .unwrap();
            if expect_fizzle {
                assert_eq!(out, ReportOutcome::Fizzled);
            }
        }
        assert_eq!(lp.state_of("a").unwrap(), Some(FwState::Fizzled));
        assert_eq!(lp.needs_human().unwrap().len(), 1);
    }

    #[test]
    fn detour_replaces_and_reparents() {
        let lp = pad();
        lp.add_workflow(&chain("wf")).unwrap();
        lp.claim_next(&json!({}), "w").unwrap();
        let out = lp
            .report(
                "a",
                LaunchReport::Detour {
                    spec_updates: json!({"$set": {"algo": "Normal"}}),
                    reason: "zbrent".into(),
                },
            )
            .unwrap();
        let ReportOutcome::Detoured(new_id) = out else {
            panic!("expected detour, got {out:?}")
        };
        assert_eq!(new_id, "a-d1");
        assert_eq!(lp.state_of("a").unwrap(), Some(FwState::Archived));
        assert_eq!(lp.state_of("a-d1").unwrap(), Some(FwState::Ready));
        // b now depends on the detour; completing it promotes b.
        let doc = lp.claim_next(&json!({}), "w").unwrap().unwrap();
        assert_eq!(doc["_id"], "a-d1");
        assert_eq!(doc["spec"]["algo"], "Normal");
        lp.report(
            "a-d1",
            LaunchReport::Success {
                task_doc: json!({"output": {}}),
            },
        )
        .unwrap();
        assert_eq!(lp.state_of("b").unwrap(), Some(FwState::Ready));
    }

    #[test]
    fn detour_chain_fizzles_at_cap() {
        let lp = LaunchPad::with_config(
            Database::new(),
            LaunchPadConfig {
                max_launches: 10,
                max_detours: 2,
                ..LaunchPadConfig::default()
            },
        )
        .unwrap();
        lp.add_workflow(&Workflow::single("wf", fw("a", json!({}))))
            .unwrap();
        let mut current = "a".to_string();
        for round in 0..3 {
            lp.claim_next(&json!({}), "w").unwrap().unwrap();
            let out = lp
                .report(
                    &current,
                    LaunchReport::Detour {
                        spec_updates: json!({"$inc": {"attempt": 1}}),
                        reason: "err".into(),
                    },
                )
                .unwrap();
            match out {
                ReportOutcome::Detoured(id) => current = id,
                ReportOutcome::Fizzled => {
                    assert_eq!(round, 2, "third detour exceeds cap of 2");
                    return;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        panic!("never fizzled");
    }

    #[test]
    fn fatal_fizzles_and_defuses_descendants() {
        let lp = pad();
        lp.add_workflow(&chain("wf")).unwrap();
        lp.claim_next(&json!({}), "w").unwrap();
        lp.report(
            "a",
            LaunchReport::Fatal {
                reason: "corrupt input".into(),
            },
        )
        .unwrap();
        assert_eq!(lp.state_of("a").unwrap(), Some(FwState::Fizzled));
        assert_eq!(lp.state_of("b").unwrap(), Some(FwState::Defused));
        assert_eq!(lp.state_of("c").unwrap(), Some(FwState::Defused));
        let humans = lp.needs_human().unwrap();
        assert_eq!(humans.len(), 1);
        assert_eq!(humans[0]["fizzle_reason"], "corrupt input");
    }

    #[test]
    fn duplicate_binder_archives_with_pointer() {
        let lp = pad();
        let first = fw("orig", json!({})).with_binder(Binder::new("fp-1", "GGA"));
        lp.add_workflow(&Workflow::single("wf1", first)).unwrap();
        lp.claim_next(&json!({}), "w").unwrap();
        lp.report(
            "orig",
            LaunchReport::Success {
                task_doc: json!({"output": {"e": -2.0}}),
            },
        )
        .unwrap();

        // A second user submits the identical calculation.
        let dup = fw("dup", json!({})).with_binder(Binder::new("fp-1", "GGA"));
        lp.add_workflow(&Workflow::single("wf2", dup)).unwrap();
        assert_eq!(lp.state_of("dup").unwrap(), Some(FwState::Archived));
        let doc = lp
            .database()
            .collection("engines")
            .find_one(&json!({"_id": "dup"}))
            .unwrap()
            .unwrap();
        assert_eq!(doc["duplicate_of"], "task-orig-1");
        // And it never gets claimed.
        assert!(lp.claim_next(&json!({}), "w").unwrap().is_none());
    }

    #[test]
    fn late_duplicate_detected_at_claim() {
        let lp = pad();
        // Both submitted before either completes.
        let a = fw("a", json!({})).with_binder(Binder::new("fp-2", "GGA"));
        let b = fw("b", json!({})).with_binder(Binder::new("fp-2", "GGA"));
        lp.add_workflow(&Workflow::single("wf1", a)).unwrap();
        lp.add_workflow(&Workflow::single("wf2", b)).unwrap();
        let first = lp.claim_next(&json!({}), "w").unwrap().unwrap();
        let first_id = first["_id"].as_str().unwrap().to_string();
        lp.report(
            &first_id,
            LaunchReport::Success {
                task_doc: json!({"output": {}}),
            },
        )
        .unwrap();
        // The second claim must skip the duplicate and find nothing.
        assert!(lp.claim_next(&json!({}), "w").unwrap().is_none());
        let other = if first_id == "a" { "b" } else { "a" };
        assert_eq!(lp.state_of(other).unwrap(), Some(FwState::Archived));
    }

    #[test]
    fn fuse_output_condition_gates_promotion() {
        let lp = pad();
        let a = fw("a", json!({}));
        let b = fw("b", json!({})).after("a").with_fuse(Fuse {
            condition: FuseCondition::ParentOutputMatches {
                filter: json!({"output.converged": true}),
            },
            overrides: None,
        });
        lp.add_workflow(&Workflow::new("wf", vec![a, b]).unwrap())
            .unwrap();
        lp.claim_next(&json!({}), "w").unwrap();
        lp.report(
            "a",
            LaunchReport::Success {
                task_doc: json!({"output": {"converged": false}}),
            },
        )
        .unwrap();
        // Condition unmet: b stays waiting.
        assert_eq!(lp.state_of("b").unwrap(), Some(FwState::Waiting));
    }

    #[test]
    fn fuse_overrides_applied_on_release() {
        let lp = pad();
        let a = fw("a", json!({}));
        let b = fw("b", json!({"encut": 400})).after("a").with_fuse(Fuse {
            condition: FuseCondition::ParentsCompleted,
            overrides: Some(json!({"$set": {"encut": 520}})),
        });
        lp.add_workflow(&Workflow::new("wf", vec![a, b]).unwrap())
            .unwrap();
        lp.claim_next(&json!({}), "w").unwrap();
        lp.report(
            "a",
            LaunchReport::Success {
                task_doc: json!({"output": {}}),
            },
        )
        .unwrap();
        let doc = lp.claim_next(&json!({}), "w").unwrap().unwrap();
        assert_eq!(doc["_id"], "b");
        assert_eq!(doc["spec"]["encut"], json!(520));
        // The modification is recorded for later analysis (paper).
        let hist = doc["history"].as_array().unwrap();
        assert!(hist.iter().any(|h| h["event"] == "fuse_overrides"));
    }

    #[test]
    fn user_approval_gates_and_releases() {
        let lp = pad();
        let a = fw("a", json!({}));
        let b = fw("b", json!({})).after("a").with_fuse(Fuse {
            condition: FuseCondition::UserApproved,
            overrides: None,
        });
        lp.add_workflow(&Workflow::new("wf", vec![a, b]).unwrap())
            .unwrap();
        lp.claim_next(&json!({}), "w").unwrap();
        lp.report(
            "a",
            LaunchReport::Success {
                task_doc: json!({"output": {}}),
            },
        )
        .unwrap();
        assert_eq!(lp.state_of("b").unwrap(), Some(FwState::Waiting));
        lp.approve_workflow("wf").unwrap();
        assert_eq!(lp.state_of("b").unwrap(), Some(FwState::Ready));
    }

    #[test]
    fn fuse_from_parent_forwards_outputs() {
        // The relax -> static pattern: the child's structure comes from
        // the parent's output.
        let lp = pad();
        let relax = fw("relax", json!({"task_type": "relax"}));
        let static_run = fw("static", json!({"task_type": "static", "structure": null}))
            .after("relax")
            .with_fuse(Fuse {
                condition: FuseCondition::ParentsCompleted,
                overrides: Some(json!({"$set": {
                    "structure": {"$fromParent": "output.structure"},
                    "encut": 520,
                }})),
            });
        lp.add_workflow(&Workflow::new("wf", vec![relax, static_run]).unwrap())
            .unwrap();
        lp.claim_next(&json!({}), "w").unwrap();
        lp.report(
            "relax",
            LaunchReport::Success {
                task_doc: json!({"output": {"structure": {"volume": 64.2, "sites": 8},
                                          "energy_per_atom": -4.0}}),
            },
        )
        .unwrap();
        let doc = lp.claim_next(&json!({}), "w").unwrap().unwrap();
        assert_eq!(doc["_id"], "static");
        assert_eq!(doc["spec"]["structure"]["volume"], json!(64.2));
        assert_eq!(doc["spec"]["encut"], json!(520));
    }

    #[test]
    fn fuse_from_parent_missing_path_errors() {
        let lp = pad();
        let a = fw("a", json!({}));
        let b = fw("b", json!({})).after("a").with_fuse(Fuse {
            condition: FuseCondition::ParentsCompleted,
            overrides: Some(json!({"$set": {"x": {"$fromParent": "output.nope"}}})),
        });
        lp.add_workflow(&Workflow::new("wf", vec![a, b]).unwrap())
            .unwrap();
        lp.claim_next(&json!({}), "w").unwrap();
        let err = lp.report(
            "a",
            LaunchReport::Success {
                task_doc: json!({"output": {}}),
            },
        );
        assert!(err.is_err(), "missing parent output must not pass silently");
    }

    #[test]
    fn state_counts() {
        let lp = pad();
        lp.add_workflow(&chain("wf")).unwrap();
        let counts = lp.state_counts().unwrap();
        assert!(counts.contains(&("READY".to_string(), 1)));
        assert!(counts.contains(&("WAITING".to_string(), 2)));
    }

    #[test]
    fn tasks_link_back_to_fireworks() {
        let lp = pad();
        lp.add_workflow(&Workflow::single("wf", fw("a", json!({}))))
            .unwrap();
        lp.claim_next(&json!({}), "w").unwrap();
        lp.report(
            "a",
            LaunchReport::Success {
                task_doc: json!({"output": {"energy": -3.5}}),
            },
        )
        .unwrap();
        let task = lp
            .database()
            .collection("tasks")
            .find_one(&json!({"fw_id": "a"}))
            .unwrap()
            .unwrap();
        assert_eq!(task["wf_id"], "wf");
        assert_eq!(task["output"]["energy"], json!(-3.5));
        assert_eq!(task["_id"], "task-a-1");
    }

    #[test]
    fn lint_gate_rejects_cyclic_workflow() {
        let lp = pad();
        // Workflow::new would refuse this, so build the struct directly —
        // the gate must catch it anyway, with the cycle path in the error.
        let wf = Workflow {
            wf_id: "wf-cyclic".into(),
            name: "cyclic".into(),
            fireworks: vec![fw("a", json!({})).after("b"), fw("b", json!({})).after("a")],
        };
        let err = lp.add_workflow(&wf);
        match err {
            Err(StoreError::InvalidDocument(msg)) => {
                assert!(msg.contains("W001"), "{msg}");
                assert!(msg.contains("->"), "cycle path rendered: {msg}");
            }
            other => panic!("expected InvalidDocument(W001), got {other:?}"),
        }
    }

    #[test]
    fn lint_gate_rejects_root_parent_output_fuse_unless_disabled() {
        let bad_wf = || {
            Workflow::single(
                "wf-fuse",
                fw("root", json!({})).with_fuse(Fuse {
                    condition: FuseCondition::ParentOutputMatches {
                        filter: json!({"status": "converged"}),
                    },
                    overrides: None,
                }),
            )
        };
        let lp = pad();
        let err = lp.add_workflow(&bad_wf());
        match err {
            Err(StoreError::InvalidDocument(msg)) => assert!(msg.contains("W006"), "{msg}"),
            other => panic!("expected InvalidDocument(W006), got {other:?}"),
        }

        // Escape hatch: with the gate off the submission goes through.
        let lax = LaunchPad::with_config(
            Database::new(),
            LaunchPadConfig {
                lint_gate: false,
                ..LaunchPadConfig::default()
            },
        )
        .unwrap();
        lax.add_workflow(&bad_wf()).unwrap();
    }
}
