//! The topologies compose over the one store seam: a sharded cluster
//! whose shards are durably opened databases survives reopening every
//! shard, and a write through a replica set's primary handle reaches the
//! secondaries — neither `ShardedCluster` nor `ReplicaSet` journals
//! anything itself.

use mp_docstore::{
    Database, DurableDatabase, FindOptions, ReadPreference, ReplicaSet, ShardedCluster, SortDir,
};
use serde_json::{json, Value};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mp-topology-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn doc(i: u64) -> Value {
    json!({"_id": i, "chemsys": format!("sys-{}", i % 17), "gap": i % 9})
}

/// Sorted `_id`s, so answers compare across shard orders.
fn ids(docs: &[std::sync::Arc<Value>]) -> Vec<u64> {
    let mut ids: Vec<u64> = docs.iter().filter_map(|d| d["_id"].as_u64()).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn sharded_cluster_over_durable_shards_survives_reopening_every_shard() {
    let dirs: Vec<PathBuf> = (0..4).map(|i| tmpdir(&format!("shard{i}"))).collect();
    let open = |n: usize| -> Vec<DurableDatabase> {
        dirs[..n]
            .iter()
            .map(|d| DurableDatabase::open(d).unwrap())
            .collect()
    };
    let cluster_of = |stores: &[DurableDatabase]| {
        let shards = stores.iter().map(|s| s.database().clone()).collect();
        ShardedCluster::from_shards(shards, "chemsys")
    };
    let oracle = Database::new();
    {
        // Two shards take the inserts ...
        let stores = open(2);
        let cluster = cluster_of(&stores);
        for i in 0..120 {
            cluster.insert_one("materials", doc(i)).unwrap();
            oracle.collection("materials").insert_one(doc(i)).unwrap();
        }
    }
    {
        // ... then the cluster grows to four and migrates.
        let stores = open(4);
        let cluster = cluster_of(&stores);
        assert!(cluster.rebalance("materials").unwrap() > 0);
    }
    // Every shard was dropped without a checkpoint; reopen them all.
    let stores = open(4);
    let cluster = cluster_of(&stores);
    let dist = cluster.distribution("materials");
    assert!(dist.iter().all(|&n| n > 0), "unbalanced: {dist:?}");
    let plain = oracle.collection("materials");
    for filter in [
        json!({}),
        json!({"chemsys": "sys-3"}),
        json!({"gap": {"$gte": 6}}),
    ] {
        assert_eq!(
            ids(&cluster.find("materials", &filter).unwrap()),
            ids(&plain.find(&filter).unwrap()),
            "find {filter}"
        );
        assert_eq!(
            cluster.count("materials", &filter).unwrap(),
            plain.count(&filter).unwrap(),
            "count {filter}"
        );
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn writes_through_the_primary_handle_replicate() {
    let rs = ReplicaSet::new(2, 100);
    let c = rs.primary().collection("c");
    c.insert_one(json!({"_id": 1, "v": 0})).unwrap();
    c.update_one(&json!({"_id": 1}), &json!({"$set": {"v": 7}}))
        .unwrap();
    c.upsert(&json!({"_id": 2}), &json!({"$set": {"v": 1}}))
        .unwrap();
    assert_eq!(rs.lag(), vec![3, 3]);
    assert_eq!(rs.replicate().unwrap(), 0);
    for i in 0..2 {
        let sec = rs.secondary(i).collection("c");
        assert_eq!(sec.len(), 2);
        assert_eq!(sec.get(&json!(1)).unwrap()["v"], json!(7));
    }
    let seen = rs.find(ReadPreference::Secondary, "c", &json!({})).unwrap();
    assert_eq!(ids(&seen), vec![1, 2]);
}

#[test]
fn a_promoted_secondary_logs_through_the_hook() {
    let mut rs = ReplicaSet::new(2, 100);
    rs.insert_one("c", json!({"_id": 1})).unwrap();
    rs.replicate().unwrap();
    assert_eq!(rs.failover().unwrap(), 0);
    // The new primary's own handle now feeds the oplog.
    rs.primary()
        .collection("c")
        .insert_one(json!({"_id": 2}))
        .unwrap();
    assert_eq!(rs.lag(), vec![1]);
    rs.replicate().unwrap();
    assert_eq!(rs.secondary(0).collection("c").len(), 2);
}

/// Step `i` of one op sequence: every `JournalOp` kind, a rejected
/// duplicate `_id`, a unique-index violation, an upsert and a sorted
/// `find_one_and_update`.
fn step(db: &Database, i: usize) {
    let m = db.collection("m");
    match i {
        0 => m.create_index("formula", true).unwrap(),
        1 => m.create_index("nsites", false).unwrap(),
        2 => {
            let docs = (0..24)
                .map(|k| json!({"_id": k, "formula": format!("F{k}"), "nsites": k % 5, "state": "READY", "priority": k % 7}))
                .collect();
            m.insert_many(docs).unwrap();
        }
        3 => assert!(m.insert_one(json!({"_id": 3, "formula": "X"})).is_err()),
        4 => assert!(m.insert_one(json!({"_id": 99, "formula": "F4"})).is_err()),
        5 => {
            let hit = m.update_many(&json!({"nsites": 2}), &json!({"$inc": {"priority": 10}}));
            assert_eq!(hit.unwrap().modified, 5);
        }
        6 => {
            let up = json!({"$set": {"formula": "F50", "state": "READY", "priority": 20}});
            m.upsert(&json!({"_id": 50}), &up).unwrap();
        }
        7 => {
            let by_priority = FindOptions::all().sort_by("priority", SortDir::Desc);
            let claimed = m
                .find_one_and_update(
                    &json!({"state": "READY"}),
                    &json!({"$set": {"state": "RUNNING"}}),
                    Some(&by_priority),
                    true,
                )
                .unwrap();
            assert_eq!(claimed.unwrap()["_id"], json!(50));
        }
        8 => assert_eq!(m.delete_many(&json!({"nsites": 4})).unwrap(), 4),
        9 => m.drop_index("nsites").unwrap(),
        10 => {
            let scratch = db.collection("scratch");
            scratch.insert_one(json!({"_id": 1})).unwrap();
            scratch.clear().unwrap();
            scratch.insert_one(json!({"_id": 2})).unwrap();
        }
        _ => {
            db.collection("gone").insert_one(json!({"_id": 1})).unwrap();
            assert!(db.drop_collection("gone").unwrap());
        }
    }
}

const STEPS: usize = 12;

/// Per collection: its documents and its index specs, comparable.
type State = Vec<(String, Vec<String>, Vec<(String, bool)>)>;

fn state(db: &Database) -> State {
    let mut names = db.collection_names();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let c = db.collection(&name);
            let mut docs: Vec<String> = c.dump().iter().map(|d| d.to_string()).collect();
            docs.sort();
            (name, docs, c.index_specs())
        })
        .collect()
}

/// A replica set replays the oplog's frames as recovery replays the
/// WAL's: one op sequence through a `ReplicaSet` primary — failing over
/// partway — and through a `DurableDatabase` that is then reopened
/// leaves the secondary, the new primary and the reopened store holding
/// the same documents and index specs.
#[test]
fn a_replica_set_and_a_reopened_durable_store_converge() {
    for batch in [1, 100] {
        let dir = tmpdir(&format!("replica-vs-durable-{batch}"));
        let durable = DurableDatabase::open(&dir).unwrap();
        let mut rs = ReplicaSet::new(2, batch);
        let failover_at = STEPS / 2;
        for i in 0..STEPS {
            if i == failover_at {
                while rs.replicate().unwrap() > 0 {}
                assert_eq!(rs.failover().unwrap(), 0);
                durable.checkpoint().unwrap();
            }
            step(rs.primary(), i);
            step(durable.database(), i);
            rs.replicate().unwrap();
        }
        while rs.replicate().unwrap() > 0 {}
        drop(durable);
        let reopened = DurableDatabase::open(&dir).unwrap();
        let want = state(reopened.database());
        assert_eq!(want.len(), 2, "batch {batch}: {want:?}");
        assert_eq!(want[0].1.len(), 21, "batch {batch}: m");
        assert_eq!(state(rs.primary()), want, "batch {batch}: new primary");
        assert_eq!(state(rs.secondary(0)), want, "batch {batch}: secondary");
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_write_through_a_pre_failover_handle_never_reaches_the_set() {
    let mut rs = ReplicaSet::new(2, 100);
    rs.insert_one("c", json!({"_id": 1})).unwrap();
    rs.replicate().unwrap();
    let old = rs.primary().collection("c");
    assert_eq!(rs.failover().unwrap(), 0);
    // The demoted primary is fenced: its handle still works, but it logs
    // to an orphaned oplog, so the set neither replicates nor diverges.
    old.insert_one(json!({"_id": 99})).unwrap();
    assert_eq!(rs.lag(), vec![0]);
    rs.replicate().unwrap();
    assert_eq!(rs.primary().collection("c").len(), 1);
    assert_eq!(rs.secondary(0).collection("c").len(), 1);
}
