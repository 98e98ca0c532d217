//! Durability integration: snapshot + journal recovery of a populated
//! deployment, including a torn final journal write, and a campaign
//! killed mid-run on a durable directory.

use materials_project::docstore::{Database, Docs, DurableDatabase, JournalOp, Persister};
use materials_project::matsci::Element;
use materials_project::MaterialsProject;
use serde_json::json;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mp-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn full_deployment_survives_snapshot_recovery() {
    let mut mp = MaterialsProject::new().unwrap();
    let recs = mp.ingest_icsd(25, 5).unwrap();
    mp.submit_calculations(&recs).unwrap();
    mp.run_campaign(15).unwrap();
    mp.build_views(materials_project::matsci::Element::from_symbol("Li").unwrap())
        .unwrap();

    let dir = tmpdir("full");
    let mut p = Persister::open(&dir).unwrap();
    p.snapshot(mp.database()).unwrap();

    let recovered = Persister::open(&dir).unwrap().recover().unwrap();
    for coll in mp.database().collection_names() {
        assert_eq!(
            recovered.collection(&coll).len(),
            mp.database().collection(&coll).len(),
            "collection {coll} size mismatch after recovery"
        );
    }
    // Spot-check: a material document round-trips byte-for-byte.
    let orig = mp
        .database()
        .collection("materials")
        .find(&json!({}))
        .unwrap();
    let back = recovered
        .collection("materials")
        .find_one(&json!({"_id": orig[0]["_id"]}))
        .unwrap()
        .unwrap();
    assert_eq!(back, orig[0]);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn journal_replay_reconstructs_queue_mutations() {
    let dir = tmpdir("queue");
    let db = Database::new();
    db.collection("engines")
        .insert_one(json!({"_id": "fw-1", "state": "READY", "launches": 0}))
        .unwrap();
    let mut p = Persister::open(&dir).unwrap();
    p.snapshot(&db).unwrap();

    // The claim + completion sequence, journaled as it would be by a
    // write-ahead layer.
    let claim = JournalOp::Update {
        collection: "engines".into(),
        filter: json!({"_id": "fw-1", "state": "READY"}),
        update: json!({"$set": {"state": "RUNNING"}, "$inc": {"launches": 1}}),
        many: false,
    };
    let task = JournalOp::Insert {
        collection: "tasks".into(),
        doc: json!({"_id": "task-fw-1-1", "fw_id": "fw-1", "status": "converged"}),
    };
    let complete = JournalOp::Update {
        collection: "engines".into(),
        filter: json!({"_id": "fw-1"}),
        update: json!({"$set": {"state": "COMPLETED", "task_id": "task-fw-1-1"}}),
        many: false,
    };
    // Apply to the live DB and journal each op.
    db.collection("engines")
        .update_one(
            &json!({"_id": "fw-1", "state": "READY"}),
            &json!({"$set": {"state": "RUNNING"}, "$inc": {"launches": 1}}),
        )
        .unwrap();
    p.append_ops(&[claim]).unwrap();
    db.collection("tasks")
        .insert_one(json!({"_id": "task-fw-1-1", "fw_id": "fw-1", "status": "converged"}))
        .unwrap();
    p.append_ops(&[task]).unwrap();
    db.collection("engines")
        .update_one(
            &json!({"_id": "fw-1"}),
            &json!({"$set": {"state": "COMPLETED", "task_id": "task-fw-1-1"}}),
        )
        .unwrap();
    p.append_ops(&[complete]).unwrap();

    let rec = Persister::open(&dir).unwrap().recover().unwrap();
    let fw = rec
        .collection("engines")
        .find_one(&json!({"_id": "fw-1"}))
        .unwrap()
        .unwrap();
    assert_eq!(fw["state"], "COMPLETED");
    assert_eq!(fw["launches"], 1);
    assert_eq!(rec.collection("tasks").len(), 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn snapshot_after_journal_truncates_journal() {
    let dir = tmpdir("compact");
    let db = Database::new();
    db.collection("c").insert_one(json!({"_id": 1})).unwrap();
    let mut p = Persister::open(&dir).unwrap();
    p.snapshot(&db).unwrap();
    p.append_ops(&[JournalOp::Insert {
        collection: "c".into(),
        doc: json!({"_id": 2}),
    }])
    .unwrap();
    db.collection("c").insert_one(json!({"_id": 2})).unwrap();
    // Compaction: new snapshot supersedes the journal.
    p.snapshot(&db).unwrap();
    assert!(!dir.join("journal.wal").exists());
    let rec = Persister::open(&dir).unwrap().recover().unwrap();
    assert_eq!(rec.collection("c").len(), 2);
    let _ = std::fs::remove_dir_all(dir);
}

/// `tasks`, `engines` and `materials`, each sorted by `_id`.
fn campaign_state(db: &Database) -> Vec<Docs> {
    ["tasks", "engines", "materials"]
        .iter()
        .map(|name| {
            let mut docs = db.collection(name).dump();
            docs.sort_by_key(|d| d["_id"].to_string());
            docs
        })
        .collect()
}

/// Ingest and submit onto `db`, then run `rounds` rounds of the campaign.
fn start_campaign(db: &Database, rounds: usize) -> MaterialsProject {
    let mut mp = MaterialsProject::on(db.clone()).unwrap();
    let recs = mp.ingest_icsd(12, 5).unwrap();
    mp.submit_calculations(&recs).unwrap();
    mp.run_campaign(rounds).unwrap();
    mp
}

/// Build the views and return the state the campaign ended in.
fn finish_campaign(mp: MaterialsProject) -> Vec<Docs> {
    mp.build_views(Element::from_symbol("Li").unwrap()).unwrap();
    campaign_state(mp.database())
}

#[test]
fn campaign_killed_mid_run_resumes_to_the_uninterrupted_state() {
    // Every write below goes through LaunchPad, the loader and the view
    // builders — plain `Database` handles of a durably opened store.
    let dir = tmpdir("killed");
    // One round in, everything is dropped without a checkpoint.
    drop(start_campaign(
        DurableDatabase::open(&dir).unwrap().database(),
        1,
    ));
    assert!(
        dir.join("journal.wal").exists() && !dir.join("snapshot.jsonl").exists(),
        "the kill must leave only a WAL behind"
    );
    let store = DurableDatabase::open(&dir).unwrap();
    let engines = store.database().collection("engines");
    assert!(engines.count(&json!({"state": "READY"})).unwrap() > 0);
    let mut mp = MaterialsProject::on(store.database().clone()).unwrap();
    mp.run_campaign(30).unwrap();
    let resumed = finish_campaign(mp);
    let uninterrupted = finish_campaign(start_campaign(&Database::new(), 30));
    assert!(!resumed[0].is_empty() && !resumed[2].is_empty());
    assert_eq!(resumed, uninterrupted);
    let _ = std::fs::remove_dir_all(dir);
}
