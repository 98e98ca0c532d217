//! The topologies compose over the one store seam: a sharded cluster
//! whose shards are durably opened databases survives reopening every
//! shard, and a write through a replica set's primary handle reaches the
//! secondaries — neither `ShardedCluster` nor `ReplicaSet` journals
//! anything itself.

use mp_docstore::{Database, DurableDatabase, ReadPreference, ReplicaSet, ShardedCluster};
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
