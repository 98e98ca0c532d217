//! Concurrency stress tests — bounded, deterministic invariants under
//! real OS threads (no loom). These run in the ordinary `cargo test`
//! suite and double as the curated TSan subset: iteration counts are
//! reduced under `--cfg tsan` so instrumented builds stay fast.

use mp_docstore::{
    Database, DurableDatabase, DurableOptions, FindOptions, ShardedCluster, SortDir, StoreError,
};
use serde_json::json;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

const THREADS: usize = 12;

/// Per-thread iteration budget: trimmed under sanitizers, where every
/// memory access costs an order of magnitude more.
fn iters(full: usize) -> usize {
    if cfg!(tsan) {
        (full / 8).max(4)
    } else {
        full
    }
}

/// Every insert from every thread lands: no lost updates under
/// contention on one collection's write lock.
#[test]
fn concurrent_inserts_are_all_retained() {
    let db = Arc::new(Database::new());
    let per_thread = iters(50);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = db.clone();
            thread::spawn(move || {
                for i in 0..per_thread {
                    db.collection("stable")
                        .insert_one(json!({"t": t, "i": i}))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.collection("stable").len(), THREADS * per_thread);
}

/// `insert_one`s race a bulk `insert_many` into the same empty
/// collection. The batch is built with no lock held; if another insert
/// commits first, the build is declined under the lock and the batch
/// goes in one document at a time after all — no error, nothing lost.
/// The final state is a serial order of the single inserts: each
/// thread's documents in the order it issued them, the `_id`s assigned
/// on the way numbered in store order, and no id skipped. Every other
/// round journals, and its reopen equals the live store, so the log
/// holds the inserts in that order too.
#[test]
fn inserts_racing_a_bulk_insert_into_an_empty_collection_lose_nothing() {
    const SINGLES: usize = 3;
    const BATCH: usize = 300;
    let (rounds, each) = (iters(24), iters(16));
    for round in 0..rounds {
        let dir =
            std::env::temp_dir().join(format!("mp-stress-bulk-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = (round % 2 == 1).then(|| {
            let opts = DurableOptions {
                fsync: false,
                ..DurableOptions::default()
            };
            DurableDatabase::open_with(&dir, opts).unwrap()
        });
        let db = store
            .as_ref()
            .map_or_else(Database::new, |s| s.database().clone());
        let start = Arc::new(std::sync::Barrier::new(1 + SINGLES));
        let bulk = {
            let (c, start) = (db.collection("c"), start.clone());
            // Every third document without `_id`: a declined build must
            // hand it back without the one it assigned.
            let docs: Vec<_> = (0..BATCH)
                .map(|i| match i % 3 {
                    0 => json!({"src": "bulk", "seq": i}),
                    _ => json!({"_id": format!("b{i}"), "src": "bulk", "seq": i}),
                })
                .collect();
            thread::spawn(move || {
                start.wait();
                c.insert_many(docs).unwrap()
            })
        };
        let singles: Vec<_> = (0..SINGLES)
            .map(|t| {
                let (c, start) = (db.collection("c"), start.clone());
                thread::spawn(move || {
                    start.wait();
                    for i in 0..each {
                        c.insert_one(json!({"src": format!("s{t}"), "seq": i}))
                            .unwrap();
                    }
                })
            })
            .collect();
        let returned = bulk.join().unwrap();
        for s in singles {
            s.join().unwrap();
        }

        let c = db.collection("c");
        let docs = c.dump();
        assert_eq!(docs.len(), BATCH + SINGLES * each, "round {round}");
        let mut issued: std::collections::BTreeMap<&str, u64> = Default::default();
        for (at, doc) in docs.iter().enumerate() {
            let seq = issued.entry(doc["src"].as_str().unwrap()).or_default();
            assert_eq!(
                doc["seq"],
                json!(*seq),
                "round {round}: out of order at {at}"
            );
            *seq += 1;
            if !doc["_id"].as_str().unwrap().starts_with('b') {
                let assigned = json!(format!("oid{:012x}", at + 1));
                assert_eq!(doc["_id"], assigned, "round {round}");
            }
        }
        let bulk_ids: Vec<_> = docs
            .iter()
            .filter(|d| d["src"] == "bulk")
            .map(|d| d["_id"].clone())
            .collect();
        assert_eq!(returned, bulk_ids, "round {round}");
        let next = json!(format!("oid{:012x}", docs.len() + 1));
        assert_eq!(c.insert_one(json!({})).unwrap(), next, "round {round}");
        if let Some(store) = store {
            let live = c.dump();
            drop((c, db, store));
            let reopened = DurableDatabase::open(&dir).unwrap();
            assert_eq!(reopened.database().collection("c").dump(), live);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A unique index under an insert storm admits exactly one winner per
/// key; every loser gets `DuplicateKey`, never a torn half-insert.
#[test]
fn unique_index_admits_one_winner_per_key() {
    let db = Arc::new(Database::new());
    let coll = db.collection("elections");
    coll.create_index("key", true).unwrap();
    let keys = iters(24);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = db.clone();
            thread::spawn(move || {
                let mut won = 0usize;
                for k in 0..keys {
                    match db
                        .collection("elections")
                        .insert_one(json!({"key": format!("k{k}"), "by": t}))
                    {
                        Ok(_) => won += 1,
                        Err(StoreError::DuplicateKey(_)) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                won
            })
        })
        .collect();
    let total_wins: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total_wins, keys, "each key has exactly one winner");
    assert_eq!(db.collection("elections").len(), keys);
}

/// `find_one_and_update` as a queue-pop primitive: N READY documents,
/// many claiming threads, every document claimed exactly once.
#[test]
fn find_one_and_update_claims_each_doc_once() {
    let db = Arc::new(Database::new());
    let coll = db.collection("queue");
    coll.create_index("state", false).unwrap();
    let n = iters(96);
    for i in 0..n {
        coll.insert_one(json!({"_id": format!("job-{i:03}"), "state": "READY"}))
            .unwrap();
    }
    let sort = FindOptions::default().sort_by("_id", SortDir::Asc);
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let db = db.clone();
            let sort = sort.clone();
            thread::spawn(move || {
                let mut claimed = Vec::new();
                while let Some(doc) = db
                    .collection("queue")
                    .find_one_and_update(
                        &json!({"state": "READY"}),
                        &json!({"$set": {"state": "RUNNING"}}),
                        Some(&sort),
                        true,
                    )
                    .unwrap()
                {
                    claimed.push(doc["_id"].as_str().unwrap().to_string());
                }
                claimed
            })
        })
        .collect();
    let mut all: Vec<String> = Vec::new();
    for h in handles {
        all.extend(h.join().unwrap());
    }
    assert_eq!(all.len(), n, "every job claimed");
    let unique: BTreeSet<_> = all.iter().collect();
    assert_eq!(unique.len(), n, "no job claimed twice");
    assert_eq!(
        db.collection("queue")
            .count(&json!({"state": "RUNNING"}))
            .unwrap(),
        n
    );
}

/// Writers racing readers on a sharded cluster while it rebalances onto
/// new shards: the final scatter count equals total inserts and routing
/// still targets one copy per document.
#[test]
fn sharded_rebalance_under_write_read_storm() {
    let n_docs = iters(64);
    let small = ShardedCluster::new(2, "mid");
    for i in 0..n_docs {
        small
            .insert_one("tasks", json!({"mid": format!("mp-{i}"), "i": i}))
            .unwrap();
    }
    let mut shards: Vec<Database> = (0..small.num_shards())
        .map(|i| small.shard(i).clone())
        .collect();
    shards.push(Database::new());
    shards.push(Database::new());
    let big = Arc::new(ShardedCluster::from_shards(shards, "mid"));

    let mover = {
        let big = big.clone();
        thread::spawn(move || big.rebalance("tasks").unwrap())
    };
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let big = big.clone();
            thread::spawn(move || {
                for _ in 0..iters(16) {
                    // Insert-before-delete migration: never undercounts.
                    assert!(big.count("tasks", &json!({})).unwrap() >= n_docs);
                }
            })
        })
        .collect();
    mover.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(big.count("tasks", &json!({})).unwrap(), n_docs);
    for i in 0..n_docs {
        assert_eq!(
            big.find("tasks", &json!({"mid": format!("mp-{i}")}))
                .unwrap()
                .len(),
            1
        );
    }
}

/// Readers range-scanning through the scan segment (DESIGN §16) while a
/// writer appends in `n` order, then moves the first half out of range:
/// each scan sees a state the writer actually passed through — a prefix
/// of the inserts, less a prefix of the moves — whether it built the
/// segment and its column or found them there, and no scan is served by
/// a segment older than a write that finished before it began.
#[test]
fn column_scans_against_a_writer_see_only_states_it_passed_through() {
    let n = iters(160) as i64;
    let db = Arc::new(Database::new());
    let start = Arc::new(std::sync::Barrier::new(5));
    let in_range = json!({"n": {"$gte": 0, "$lt": n}});
    let writer = {
        let (db, start) = (db.clone(), start.clone());
        thread::spawn(move || {
            let c = db.collection("rows");
            start.wait();
            for i in 0..n {
                c.insert_one(json!({"_id": i, "n": i})).unwrap();
            }
            for i in 0..n / 2 {
                c.update_one(&json!({"_id": i}), &json!({"$set": {"n": n + i}}))
                    .unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let (db, start, q) = (db.clone(), start.clone(), in_range.clone());
            thread::spawn(move || {
                let c = db.collection("rows");
                start.wait();
                let (mut moved, mut inserted) = (0, 0);
                while moved < n / 2 {
                    let len_before = c.len() as i64;
                    let rows = c.find(&q).unwrap();
                    let ids: Vec<i64> = rows.iter().map(|d| d["_id"].as_i64().unwrap()).collect();
                    let Some(&first) = ids.first() else {
                        assert_eq!(len_before, 0, "rows were in range before this scan");
                        continue;
                    };
                    // Inserts land in id order and so do the moves: what
                    // is in range is the ids `first..end`.
                    let end = first + ids.len() as i64;
                    assert!(ids.iter().copied().eq(first..end), "{ids:?}");
                    assert!(first == 0 || end == n, "moves start after the last insert");
                    assert!(first >= moved, "a moved row came back");
                    assert!(end >= inserted, "an inserted row vanished");
                    assert!(end >= len_before, "scan older than `len` before it");
                    (moved, inserted) = (first, end);
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    let c = db.collection("rows");
    assert_eq!(c.count(&in_range).unwrap() as i64, n - n / 2);
    assert_eq!(c.count(&json!({"n": {"$gte": n}})).unwrap() as i64, n / 2);
}

/// Sealed WAL generations in `dir`: one is there from the moment a
/// checkpoint has captured until it has retired.
fn sealed_generations(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".sealed"))
        .collect()
}

/// Two threads commit through a store whose log keeps crossing its
/// checkpoint threshold. A commit that finds the same sealed generation
/// in the directory before it starts and after it is acknowledged ran
/// wholly inside that checkpoint's flight — the writer was not stopped
/// for it. Counted, not timed: the threads go on until enough such
/// commits were seen. Then every handle is dropped with a checkpoint
/// (most likely) still being written, and the directory must reopen to
/// exactly what was acknowledged.
#[test]
fn commits_are_acknowledged_while_a_checkpoint_is_in_flight() {
    const WANTED: usize = 16;
    const GIVE_UP_AFTER: usize = 200_000;
    let dir = std::env::temp_dir().join(format!("mp-stress-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DurableDatabase::open_with(
        &dir,
        DurableOptions {
            fsync: false,
            compact_after_bytes: Some(4096),
        },
    )
    .unwrap();
    // A body of documents, so a snapshot takes many commits to write.
    let body = iters(4000);
    store
        .insert_many(
            "body",
            (0..body)
                .map(|i| json!({"_id": i, "pad": "x".repeat(64)}))
                .collect(),
        )
        .unwrap();

    let in_flight = Arc::new(AtomicUsize::new(0));
    let writers: Vec<_> = (0..2)
        .map(|t| {
            let (db, dir, in_flight) = (store.database().clone(), dir.clone(), in_flight.clone());
            thread::spawn(move || {
                let rows = db.collection("rows");
                let mut acked = 0usize;
                while in_flight.load(Ordering::SeqCst) < WANTED {
                    assert!(acked < GIVE_UP_AFTER, "no commit overlapped a checkpoint");
                    let before = sealed_generations(&dir);
                    rows.insert_one(json!({"_id": format!("{t}-{acked}"), "n": acked}))
                        .unwrap();
                    acked += 1;
                    if !before.is_disjoint(&sealed_generations(&dir)) {
                        in_flight.fetch_add(1, Ordering::SeqCst);
                    }
                }
                acked
            })
        })
        .collect();
    let acked: Vec<usize> = writers.into_iter().map(|w| w.join().unwrap()).collect();
    assert!(in_flight.load(Ordering::SeqCst) >= WANTED);
    drop(store);

    // The last handle waited for the checkpoint in flight: one
    // snapshot, at most the active generation beside it.
    let left: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name != "journal.wal")
        .collect();
    assert_eq!(left, ["snapshot.jsonl"]);
    let store = DurableDatabase::open(&dir).unwrap();
    let db = store.database();
    assert_eq!(db.collection("body").len(), body);
    assert_eq!(db.collection("rows").len(), acked.iter().sum::<usize>());
    for (t, &n) in acked.iter().enumerate() {
        for k in 0..n {
            assert!(
                db.collection("rows")
                    .get(&json!(format!("{t}-{k}")))
                    .is_some(),
                "acknowledged insert {t}-{k} lost"
            );
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}
