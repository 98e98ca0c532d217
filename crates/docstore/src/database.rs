//! The database: a set of named collections sharing a profiler and a
//! simulated clock, mirroring one `mongod` deployment serving every role
//! in the Materials Project architecture at once.

use crate::collection::Collection;
use crate::docgraph::{schema_stats, DocStats};
use crate::error::Result;
use crate::journal::{register_collection, Journal, JournalSink, Shared, StateLock, Store};
use crate::persist::{Barrier, JournalOp};
use crate::profiler::Profiler;
use mp_sync::{LockRank, OrderedMutex};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A named set of collections. Cheap to clone (`Arc` inside).
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
}

/// The collection map plus the generation floors of dropped
/// collections. Both live under one lock: the floor a re-created
/// collection must inherit is decided by the same critical section that
/// inserts it, so no interleaving can observe the successor at a
/// generation the predecessor already published.
#[derive(Default)]
pub(crate) struct Registry {
    map: BTreeMap<String, Arc<Collection>>,
    /// `name → generation the dropped collection had reached`. A
    /// successor seeds its version past this floor so `(name,
    /// generation)` cache keys never alias across a drop/recreate.
    floors: BTreeMap<String, u64>,
}

pub(crate) struct DbInner {
    collections: StateLock<Registry>,
    /// Profiler, clock and (once attached) the journal, shared with
    /// every collection.
    shared: Arc<Shared>,
}

/// The registry commits through the same seam as the collections;
/// dropping a collection publishes no generation of its own.
impl Store for Database {
    type State = Registry;
    type Retired = ();
    fn state(&self) -> &StateLock<Registry> {
        &self.inner.collections
    }
    fn bump_version(&self, _: &mut Registry) {}
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Create an empty database with a 64k-sample profiler.
    pub fn new() -> Self {
        Database {
            inner: Arc::new(DbInner {
                collections: StateLock::new(LockRank::Database, Registry::default()),
                shared: Arc::new(Shared::new()),
            }),
        }
    }

    /// Make every later mutation through any handle of this database
    /// write ahead to `sink`, acknowledged once past `barrier`. Attached
    /// after recovery replay, never before; a second attach is ignored
    /// (a database has one log).
    pub(crate) fn attach_journal(
        &self,
        sink: Arc<OrderedMutex<dyn JournalSink>>,
        barrier: Barrier,
    ) {
        let db = Arc::downgrade(&self.inner);
        let _ = self.inner.shared.journal.set(Journal { sink, barrier, db });
    }

    /// Get (creating on first use, like MongoDB) the named collection.
    ///
    /// Two threads can both miss on the read probe; the `entry` upgrade
    /// under the write lock makes the construction race benign — the
    /// loser's closure never runs and both callers get the same `Arc`
    /// (asserted by `concurrent_creation_yields_one_instance`).
    pub fn collection(&self, name: &str) -> Arc<Collection> {
        if let Some(c) = self.inner.collections.read().map.get(name) {
            return c.clone();
        }
        register_collection(self, |reg| {
            let floor = reg.floors.get(name).copied().unwrap_or(0);
            reg.map
                .entry(name.to_string())
                .or_insert_with(|| {
                    let c = Collection::new(name, self.inner.shared.clone());
                    c.set_version_floor(floor);
                    Arc::new(c)
                })
                .clone()
        })
    }

    /// Names of all existing collections.
    pub fn collection_names(&self) -> Vec<String> {
        self.inner.collections.read().map.keys().cloned().collect()
    }

    /// Drop a collection entirely.
    ///
    /// A future same-named collection starts one generation above the
    /// last the dropped one published, so query-cache entries keyed to
    /// the old `(name, generation)` can never be served from the
    /// successor. Returns whether the collection existed.
    pub fn drop_collection(&self, name: &str) -> Result<bool> {
        self.inner.shared.commit_one(
            self,
            JournalOp::DropCollection { collection: name },
            |reg| {
                let dropped = reg.map.remove(name);
                if let Some(c) = &dropped {
                    reg.floors.insert(name.to_string(), c.version() + 1);
                }
                Ok(dropped.is_some())
            },
        )
    }

    /// The shared operation profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.inner.shared.profiler
    }

    /// Advance the simulated clock (seconds); `$currentDate` reads it.
    pub fn set_time(&self, t: f64) {
        *self.inner.shared.clock.write() = t;
    }

    /// Current simulated time (seconds).
    pub fn time(&self) -> f64 {
        *self.inner.shared.clock.read()
    }

    /// Total documents across all collections.
    pub fn total_documents(&self) -> usize {
        self.inner
            .collections
            .read()
            .map
            .values()
            .map(|c| c.len())
            .sum()
    }

    /// Table-I-style structure statistics for one collection's merged
    /// document schema.
    pub fn collection_structure(&self, name: &str) -> DocStats {
        let docs = self.collection(name).dump();
        schema_stats(&docs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn collections_created_on_demand() {
        let db = Database::new();
        assert!(db.collection_names().is_empty());
        db.collection("mps").insert_one(json!({"a": 1})).unwrap();
        assert_eq!(db.collection_names(), vec!["mps".to_string()]);
    }

    #[test]
    fn same_collection_instance() {
        let db = Database::new();
        db.collection("x").insert_one(json!({"a": 1})).unwrap();
        assert_eq!(db.collection("x").len(), 1);
    }

    #[test]
    fn clone_shares_state() {
        let db = Database::new();
        let db2 = db.clone();
        db.collection("c").insert_one(json!({"a": 1})).unwrap();
        assert_eq!(db2.collection("c").len(), 1);
    }

    #[test]
    fn drop_collection() {
        let db = Database::new();
        db.collection("c").insert_one(json!({})).unwrap();
        assert!(db.drop_collection("c").unwrap());
        assert!(!db.drop_collection("c").unwrap());
        assert!(db.collection_names().is_empty());
    }

    #[test]
    fn drop_and_recreate_never_reuses_generations() {
        // Regression: a re-created collection restarting at generation 0
        // could reach a generation the dropped one had already
        // published, falsely validating stale (name, generation) cache
        // entries. The successor must start strictly above the floor.
        let db = Database::new();
        let c = db.collection("c");
        c.insert_one(json!({"_id": 1, "v": "old"})).unwrap();
        let seen = c.version();
        assert!(db.drop_collection("c").unwrap());
        let c2 = db.collection("c");
        assert!(
            c2.version() > seen,
            "successor starts at {} which aliases generation {seen}",
            c2.version()
        );
    }

    #[test]
    fn sim_clock_feeds_current_date() {
        let db = Database::new();
        db.set_time(42.0);
        let c = db.collection("c");
        c.insert_one(json!({"_id": 1})).unwrap();
        c.update_one(&json!({"_id": 1}), &json!({"$currentDate": {"ts": true}}))
            .unwrap();
        assert_eq!(
            c.find_one(&json!({"_id": 1})).unwrap().unwrap()["ts"],
            json!(42)
        );
    }

    #[test]
    fn concurrent_creation_yields_one_instance() {
        // Regression for the read-miss/construct race: every thread must
        // end up with the *same* Arc<Collection>, never a duplicate
        // handle whose documents would be lost.
        let db = Database::new();
        let mut handles = Vec::new();
        for _ in 0..16 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                Arc::as_ptr(&db.collection("racy")) as usize
            }));
        }
        let ptrs: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]), "{ptrs:?}");
    }

    #[test]
    fn profiler_sees_all_collections() {
        let db = Database::new();
        db.collection("a").insert_one(json!({})).unwrap();
        db.collection("b").find(&json!({})).unwrap();
        assert!(db.profiler().total_ops() >= 2);
    }

    #[test]
    fn structure_stats_of_collection() {
        let db = Database::new();
        db.collection("c")
            .insert_one(json!({"_id": 1, "a": {"b": 1}}))
            .unwrap();
        let s = db.collection_structure("c");
        assert!(s.nodes >= 4);
        assert!(s.depth >= 3);
    }

    #[test]
    fn concurrent_access() {
        let db = Database::new();
        let mut handles = Vec::new();
        for t in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    db.collection("shared")
                        .insert_one(json!({"t": t, "i": i}))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.collection("shared").len(), 400);
    }
}
