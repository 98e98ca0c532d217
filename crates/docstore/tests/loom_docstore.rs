//! Loom model-checking of the docstore's core interleavings.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`; each body runs under
//! `loom::model`, which explores thread interleavings (the vendored
//! shim drives a seeded randomized scheduler for `LOOM_ITERS`
//! iterations). Invariants here are the ones the mp-sync rank table is
//! supposed to guarantee: no lost updates, no torn reads, document
//! counts conserved across structural operations.
#![cfg(loom)]

use loom::thread;
use mp_docstore::{Database, ReadPreference, ReplicaSet, ShardedCluster};
use serde_json::json;
use std::sync::Arc;

/// Concurrent upsert, point read, and index rebuild on one collection:
/// the read sees either the old or the new value (never a tear), and
/// after the join the update won and the rebuilt index serves it.
#[test]
fn collection_upsert_read_index_rebuild() {
    loom::model(|| {
        let db = Arc::new(Database::new());
        let coll = db.collection("materials");
        coll.insert_one(json!({"_id": "k", "v": 0})).unwrap();

        let writer = {
            let db = db.clone();
            thread::spawn(move || {
                db.collection("materials")
                    .upsert(&json!({"_id": "k"}), &json!({"$set": {"v": 1}}))
                    .unwrap();
            })
        };
        let indexer = {
            let db = db.clone();
            thread::spawn(move || {
                db.collection("materials").create_index("v", false).unwrap();
            })
        };

        let seen = db
            .collection("materials")
            .find_one(&json!({"_id": "k"}))
            .unwrap()
            .unwrap();
        let v = seen["v"].as_i64().unwrap();
        assert!(v == 0 || v == 1, "torn read: v={v}");

        writer.join().unwrap();
        indexer.join().unwrap();

        let coll = db.collection("materials");
        assert_eq!(coll.len(), 1);
        let after = coll.find_one(&json!({"_id": "k"})).unwrap().unwrap();
        assert_eq!(after["v"], json!(1), "upsert lost");
        assert_eq!(coll.find(&json!({"v": 1})).unwrap().len(), 1);
    });
}

/// Snapshot scan racing a copy-on-write update. The scan clones `Arc`
/// handles under the collection lock and matches outside it; the update
/// replaces documents rather than writing through them. So every
/// document a reader holds must be internally consistent (`a == b`,
/// never torn), and nothing the writer does afterwards may show through
/// handles the reader already obtained.
#[test]
fn snapshot_scan_vs_cow_update() {
    loom::model(|| {
        let db = Arc::new(Database::new());
        let coll = db.collection("m");
        for i in 0..3 {
            coll.insert_one(json!({"_id": format!("d{i}"), "a": 0, "b": 0}))
                .unwrap();
        }

        let writer = {
            let db = db.clone();
            thread::spawn(move || {
                db.collection("m")
                    .update_many(&json!({}), &json!({"$set": {"a": 1, "b": 1}}))
                    .unwrap();
            })
        };

        let held = db.collection("m").find(&json!({})).unwrap();
        assert_eq!(held.len(), 3);
        for d in &held {
            assert_eq!(d["a"], d["b"], "torn document: {d}");
        }
        let frozen: Vec<i64> = held.iter().map(|d| d["a"].as_i64().unwrap()).collect();

        writer.join().unwrap();

        // The writer finished, but the snapshot the reader holds is
        // immutable: re-reading the same handles yields the same bytes.
        let now: Vec<i64> = held.iter().map(|d| d["a"].as_i64().unwrap()).collect();
        assert_eq!(frozen, now, "held snapshot mutated by a later write");
        for d in db.collection("m").find(&json!({})).unwrap() {
            assert_eq!(d["a"], json!(1));
            assert_eq!(d["b"], json!(1));
        }
    });
}

/// Two threads race `Database::collection` on a name that does not
/// exist yet: the read-probe/write-upgrade in `collection` must yield
/// one shared instance, so both inserts land in the same collection.
#[test]
fn collection_creation_race_yields_single_instance() {
    loom::model(|| {
        let db = Arc::new(Database::new());
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let db = db.clone();
                thread::spawn(move || {
                    db.collection("racy").insert_one(json!({"i": i})).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.collection("racy").len(), 2, "insert lost to a twin");
        let names = db.collection_names();
        assert_eq!(names.iter().filter(|n| n.as_str() == "racy").count(), 1);
    });
}

/// Cluster growth: rebalance migrates documents onto new shards while
/// scatter queries run. Rebalance inserts at the destination, bumps the
/// migration epoch, then deletes at the source, and a scatter reads
/// again when the epoch moved under it — so it may double-count but can
/// never *under*-count (visiting the destination before the insert and
/// the source after the delete); after the join the count is exact and
/// every targeted read routes to exactly one copy.
#[test]
fn shard_rebalance_vs_scatter_query() {
    const N: usize = 6;
    loom::model(|| {
        let small = ShardedCluster::new(2, "material_id");
        for i in 0..N {
            small
                .insert_one("tasks", json!({"material_id": format!("mp-{i}"), "i": i}))
                .unwrap();
        }
        let mut shards: Vec<Database> = (0..small.num_shards())
            .map(|i| small.shard(i).clone())
            .collect();
        shards.push(Database::new());
        shards.push(Database::new());
        let big = Arc::new(ShardedCluster::from_shards(shards, "material_id"));

        let mover = {
            let big = big.clone();
            thread::spawn(move || big.rebalance("tasks").unwrap())
        };
        let during = big.count("tasks", &json!({})).unwrap();
        assert!(
            during >= N,
            "scatter under-counted during rebalance: {during}"
        );
        let found = big.find("tasks", &json!({"i": {"$gte": 0}})).unwrap();
        assert!(
            found.len() >= N,
            "scatter find missed a document during rebalance: {}",
            found.len()
        );
        mover.join().unwrap();

        assert_eq!(big.count("tasks", &json!({})).unwrap(), N);
        for i in 0..N {
            let hits = big
                .find("tasks", &json!({"material_id": format!("mp-{i}")}))
                .unwrap();
            assert_eq!(hits.len(), 1, "mp-{i} after rebalance");
        }
    });
}

/// Replication round racing a secondary-preference read: the reader
/// sees some oplog prefix (never more than was written), and once
/// replication quiesces every secondary has the full set.
#[test]
fn replicaset_replicate_vs_secondary_read() {
    const N: usize = 4;
    loom::model(|| {
        let rs = Arc::new(ReplicaSet::new(1, 2));
        for i in 0..N {
            rs.insert_one("t", json!({"i": i})).unwrap();
        }
        let applier = {
            let rs = rs.clone();
            thread::spawn(move || {
                rs.replicate().unwrap();
            })
        };
        let seen = rs
            .find(ReadPreference::Secondary, "t", &json!({}))
            .unwrap()
            .len();
        assert!(seen <= N, "secondary read saw {seen} > {N} docs");
        applier.join().unwrap();

        while rs.replicate().unwrap() > 0 {}
        let full = rs.find(ReadPreference::Secondary, "t", &json!({})).unwrap();
        assert_eq!(full.len(), N);
    });
}
