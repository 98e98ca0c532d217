//! Sharding and replication (§IV-D2).
//!
//! "Future scalability can leverage the sharding and replication
//! capabilities built in to MongoDB. This will allow us to maintain
//! performance at scale as the Materials Project data grows, as well as
//! isolate the various roles of the database to separate servers." The
//! paper leaves this as future work; we implement it: a hash-sharded
//! cluster with a mongos-style router (targeted vs scatter-gather
//! reads), and replica sets with oplog-based secondaries, lag, and
//! failover.

use crate::collection::{filter_matches, Count, UpdateResult, UNBOUNDED};
use crate::database::Database;
use crate::error::{Result, StoreError};
use crate::journal::JournalSink;
use crate::persist::{
    decode_frame, frame_record, Barrier, FrameDecode, Framed, JournalRef, Record,
};
use crate::query::{CompiledFilter, Filter};
use crate::value::{hash_value, Docs, Document, Path};
use mp_exec::WorkPool;
use mp_sync::{LockRank, OrderedMutex};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A hash-sharded cluster of databases with a router in front.
pub struct ShardedCluster {
    shards: Vec<Database>,
    /// Dotted path of the shard key.
    shard_key: Path,
    /// Router statistics: (targeted reads, scatter-gather reads).
    stats: OrderedMutex<(u64, u64)>,
    /// Migration epoch: `rebalance` bumps it between a document's
    /// insert at its destination and its delete at its source; a
    /// scatter read that sees it move reads again.
    migration_epoch: AtomicU64,
}

impl ShardedCluster {
    /// Create a cluster of `n` shards keyed on `shard_key`.
    pub fn new(n: usize, shard_key: &str) -> Self {
        Self::from_shards((0..n.max(1)).map(|_| Database::new()).collect(), shard_key)
    }

    /// Assemble a cluster from existing shard databases — how a cluster
    /// grows: reuse the old shards, append fresh empty ones, then call
    /// [`rebalance`](Self::rebalance) to migrate misplaced documents.
    pub fn from_shards(shards: Vec<Database>, shard_key: &str) -> Self {
        assert!(!shards.is_empty(), "a cluster needs at least one shard");
        ShardedCluster {
            shards,
            shard_key: Path::new(shard_key),
            stats: OrderedMutex::new(LockRank::ShardStats, (0, 0)),
            migration_epoch: AtomicU64::new(0),
        }
    }

    /// Move every document whose shard key no longer hashes to its
    /// current shard (the cluster shape changed) onto the right one.
    /// Returns how many documents moved.
    ///
    /// Each document is inserted at its destination, the migration
    /// epoch is bumped, and only then is it deleted at the source. A
    /// scatter-gather `find`/`count` visits the shards in turn, so on
    /// its own it could pass the destination before the insert and the
    /// source after the delete and miss the document; it therefore
    /// reads the epoch before and after picking its candidates and
    /// reads again if it moved ([`Self::stable_read`]). A read that
    /// keeps its result saw no source copy disappear meanwhile, so it
    /// sees every document once or (a copy at each end) twice, never
    /// zero times. Not covered: a read *targeted* by the shard key
    /// routes to the new owner and misses a document that has not moved
    /// yet, and a scatter `update_many` may update a source copy whose
    /// duplicate was already taken — quiesce writers and targeted
    /// readers around a rebalance.
    pub fn rebalance(&self, collection: &str) -> Result<usize> {
        // One migration job per source shard, scattered over scoped threads;
        // destinations are distinct Database instances, so concurrent
        // inserts from different sources are safe, and the per-document
        // insert-before-delete ordering is preserved inside each job.
        let sources: Vec<usize> = (0..self.shards.len()).collect();
        let moved_per_shard = WorkPool::global().scatter_morsels(&sources, 1, |one| {
            let i = one[0];
            let coll = self.shards[i].collection(collection);
            let mut moved = 0;
            for doc in coll.dump() {
                let Some(key) = self.shard_key.get(&doc) else {
                    continue;
                };
                let target = (hash_value(key) % self.shards.len() as u64) as usize;
                if target == i {
                    continue;
                }
                let id = doc.get("_id").cloned().unwrap_or(Value::Null);
                // Migration is a write path: the destination takes its own
                // copy of the document.
                self.shards[target]
                    .collection(collection)
                    .insert_one((*doc).clone())?;
                self.migration_epoch.fetch_add(1, Ordering::SeqCst);
                coll.delete_one(&json!({ "_id": id }))?;
                moved += 1;
            }
            Ok(moved)
        });
        moved_per_shard
            .into_iter()
            .try_fold(0usize, |acc, r| r.map(|m| acc + m))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to one shard (for tests/rebalancing tooling).
    pub fn shard(&self, i: usize) -> &Database {
        &self.shards[i]
    }

    /// (targeted, scatter-gather) read counts since creation.
    pub fn routing_stats(&self) -> (u64, u64) {
        *self.stats.lock()
    }

    /// Run `read` over the shards, again if a `rebalance` was about to
    /// delete a source copy meanwhile. The delete follows the bump in
    /// the mover's program order and the shard's lock orders it before
    /// a read that misses the copy, so such a read sees the new epoch.
    fn stable_read<T>(&self, read: impl Fn() -> T) -> T {
        loop {
            let epoch = self.migration_epoch.load(Ordering::SeqCst);
            let out = read();
            if self.migration_epoch.load(Ordering::SeqCst) == epoch {
                return out;
            }
        }
    }

    fn shard_for(&self, key_value: &Value) -> &Database {
        let idx = (hash_value(key_value) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Insert a document; it must carry the shard key.
    pub fn insert_one(&self, collection: &str, doc: Value) -> Result<Value> {
        let key = self.shard_key.get(&doc).ok_or_else(|| {
            StoreError::InvalidDocument(format!("document missing shard key '{}'", self.shard_key))
        })?;
        self.shard_for(&key.clone())
            .collection(collection)
            .insert_one(doc)
    }

    /// Find: targeted to one shard when the filter pins the shard key
    /// with an equality, otherwise scatter-gather across all shards.
    pub fn find(&self, collection: &str, filter: &Value) -> Result<Docs> {
        let parsed = Filter::parse(filter)?;
        if let Some(key_value) = parsed.equality_on(self.shard_key.as_str()) {
            self.stats.lock().0 += 1;
            return self
                .shard_for(key_value)
                .collection(collection)
                .find(filter);
        }
        self.stats.lock().1 += 1;
        Ok(self.scatter_gather(collection, &parsed.compile(), Arc::clone))
    }

    /// Count across the cluster (targeted when possible): the same
    /// scatter-gather scan as [`find`](Self::find), keeping nothing.
    pub fn count(&self, collection: &str, filter: &Value) -> Result<usize> {
        let parsed = Filter::parse(filter)?;
        if let Some(key_value) = parsed.equality_on(self.shard_key.as_str()) {
            return self
                .shard_for(key_value)
                .collection(collection)
                .count(filter);
        }
        let cf = parsed.compile();
        if cf.is_empty() {
            return Ok(self.stable_read(|| self.distribution(collection).iter().sum()));
        }
        let Count(n) = self.scatter_gather(collection, &cf, |_| ());
        Ok(n)
    }

    /// The router's one scatter-gather read, over a filter parsed and
    /// compiled once by the caller. Each shard's planner picks its own
    /// candidates (index-assisted where possible, the shard's scan
    /// segment otherwise; the lock is held only for the handle clones),
    /// and the sets are matched as one sequential scan spanning shard
    /// boundaries, with nothing flattened into an intermediate union
    /// vector first. `sink` says what a match becomes; output is
    /// shard-major, identical to a shard-by-shard concatenation.
    fn scatter_gather<T, C: FromIterator<T>>(
        &self,
        collection: &str,
        cf: &CompiledFilter,
        sink: impl Fn(&Arc<Document>) -> T,
    ) -> C {
        let sets: Vec<_> = self.stable_read(|| {
            self.shards
                .iter()
                .map(|s| s.collection(collection).candidates(cf))
                .collect()
        });
        filter_matches(&sets, cf, UNBOUNDED, sink)
    }

    /// Update across the cluster; returns the merged result.
    pub fn update_many(
        &self,
        collection: &str,
        filter: &Value,
        update: &Value,
    ) -> Result<UpdateResult> {
        let parsed = Filter::parse(filter)?;
        let mut merged = UpdateResult::default();
        if let Some(key_value) = parsed.equality_on(self.shard_key.as_str()) {
            return self
                .shard_for(key_value)
                .collection(collection)
                .update_many(filter, update);
        }
        let results = WorkPool::global().scatter_morsels(&self.shards, 1, |one| {
            one[0].collection(collection).update_many(filter, update)
        });
        for r in results {
            let r = r?;
            merged.matched += r.matched;
            merged.modified += r.modified;
        }
        Ok(merged)
    }

    /// Per-shard document counts for a collection — balance diagnostics.
    pub fn distribution(&self, collection: &str) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.collection(collection).len())
            .collect()
    }
}

/// How a replica-set read is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPreference {
    /// Always read the primary (strongly consistent).
    Primary,
    /// Round-robin the secondaries (scales reads; may be stale).
    Secondary,
}

/// Round-robin router bookkeeping for a [`ReplicaSet`].
#[derive(Default)]
struct RouterState {
    /// Next secondary to try (round-robin cursor).
    cursor: usize,
    /// Reads served by the primary.
    primary_reads: u64,
    /// Reads served by a secondary.
    secondary_reads: u64,
}

/// The in-memory oplog: the WAL's own CRC frames, written by the same
/// `frame_record` into one buffer, and where each frame ends — entry
/// count is the LSN, nothing to fsync, and nothing is ever folded away
/// (a lagging secondary may still need any suffix).
#[derive(Default)]
struct Oplog {
    frames: Framed,
    ends: Vec<usize>,
}

impl Oplog {
    /// Byte offset of entry `i`: where the entries before it end.
    fn offset(&self, i: usize) -> usize {
        self.ends
            .get(..i)
            .and_then(<[_]>::last)
            .map_or(0, |&end| end)
    }

    /// Keep the first `n` entries.
    fn truncate(&mut self, n: usize) {
        self.frames.truncate(self.offset(n));
        self.ends.truncate(n);
    }
}

/// The primary's journal: each op framed as the WAL frames it.
impl JournalSink for Oplog {
    fn append_op(&mut self, op: JournalRef<'_>) -> Result<()> {
        frame_record(&mut self.frames, &op);
        self.ends.push(self.frames.len());
        Ok(())
    }

    fn flush_appended(&mut self) -> Result<(u64, bool)> {
        Ok((self.ends.len() as u64, false))
    }
}

/// A primary + N secondaries kept in sync by an oplog.
pub struct ReplicaSet {
    primary: Database,
    secondaries: Vec<Database>,
    /// The primary's journal (`LockRank::Journal`): every write through
    /// any handle of the primary lands here before it is applied.
    oplog: Arc<OrderedMutex<Oplog>>,
    /// How many oplog entries each secondary has applied.
    applied: OrderedMutex<Vec<usize>>,
    /// Entries applied per `replicate()` call per secondary (lag model).
    pub batch: usize,
    router: OrderedMutex<RouterState>,
}

impl ReplicaSet {
    /// A set with `n_secondaries` secondaries applying up to `batch`
    /// oplog entries per replication round.
    pub fn new(n_secondaries: usize, batch: usize) -> Self {
        let oplog = Arc::new(OrderedMutex::new(LockRank::Journal, Oplog::default()));
        let primary = Database::new();
        primary.attach_journal(oplog.clone(), Barrier::Append);
        ReplicaSet {
            primary,
            secondaries: (0..n_secondaries).map(|_| Database::new()).collect(),
            oplog,
            applied: OrderedMutex::new(LockRank::ReplApplied, vec![0; n_secondaries]),
            batch: batch.max(1),
            router: OrderedMutex::new(LockRank::ReplRouter, RouterState::default()),
        }
    }

    /// The primary. A write through any of its collection handles is
    /// logged to the oplog and reaches the secondaries on `replicate`.
    pub fn primary(&self) -> &Database {
        &self.primary
    }

    /// Direct access to one secondary (for inspection in tests).
    pub fn secondary(&self, i: usize) -> &Database {
        &self.secondaries[i]
    }

    /// `(primary_reads, secondary_reads)` routed since creation.
    pub fn read_distribution(&self) -> (u64, u64) {
        let rt = self.router.lock();
        (rt.primary_reads, rt.secondary_reads)
    }

    /// `primary().collection(collection).insert_one(doc)`.
    pub fn insert_one(&self, collection: &str, doc: Value) -> Result<Value> {
        self.primary.collection(collection).insert_one(doc)
    }

    /// `primary().collection(collection).update_many(filter, update)`.
    pub fn update_many(
        &self,
        collection: &str,
        filter: &Value,
        update: &Value,
    ) -> Result<UpdateResult> {
        self.primary
            .collection(collection)
            .update_many(filter, update)
    }

    /// One replication round: each secondary applies up to `batch`
    /// pending oplog entries, read as recovery reads the WAL — each
    /// frame checksum-verified, then decoded, then applied. Returns the
    /// max remaining lag (entries).
    // mp-lint: allow(E003) — oplog-ordered application is the replication
    // contract: the applied/oplog guards must span the whole round so no
    // concurrent round interleaves ops and the primary appends nothing
    // mid-round; secondaries carry no journal, so nothing blocks on I/O.
    pub fn replicate(&self) -> Result<usize> {
        // mp-lint: allow(L003) — ReplApplied(310) -> Journal(380, the
        // oplog) -> Collection (via JournalOp::apply) is the sanctioned
        // replication chain.
        let mut applied = self.applied.lock();
        let oplog = self.oplog.lock();
        let mut max_lag = 0;
        for (i, sec) in self.secondaries.iter().enumerate() {
            let from = applied[i];
            let to = (from + self.batch).min(oplog.ends.len());
            let mut off = oplog.offset(from);
            for _ in from..to {
                let FrameDecode::Frame { payload, next } = decode_frame(&oplog.frames, off) else {
                    return Err(StoreError::Persistence(format!(
                        "oplog frame at byte {off} failed its checksum"
                    )));
                };
                // `append_op` frames ops only: the oplog has no stamp.
                if let Record::Op(op) = Record::decode(payload)? {
                    op.apply(sec)?;
                }
                off = next;
            }
            applied[i] = to;
            max_lag = max_lag.max(oplog.ends.len() - to);
        }
        Ok(max_lag)
    }

    /// Read with a preference.
    pub fn find(&self, pref: ReadPreference, collection: &str, filter: &Value) -> Result<Docs> {
        match pref {
            ReadPreference::Primary => {
                self.router.lock().primary_reads += 1;
                self.primary.collection(collection).find(filter)
            }
            ReadPreference::Secondary => {
                if self.secondaries.is_empty() {
                    self.router.lock().primary_reads += 1;
                    return self.primary.collection(collection).find(filter);
                }
                let i = {
                    let mut rt = self.router.lock();
                    let i = rt.cursor % self.secondaries.len();
                    rt.cursor += 1;
                    rt.secondary_reads += 1;
                    i
                };
                self.secondaries[i].collection(collection).find(filter)
            }
        }
    }

    /// Read tolerating at most `max_lag` pending oplog entries of
    /// staleness: secondaries within the tolerance serve the read
    /// round-robin — so with `max_lag == 0`, fully caught-up
    /// secondaries still spread the load instead of everything
    /// falling on the primary. Only when *no* secondary qualifies
    /// does the primary serve the read.
    pub fn find_with_tolerance(
        &self,
        max_lag: usize,
        collection: &str,
        filter: &Value,
    ) -> Result<Docs> {
        let lags = self.lag();
        let eligible: Vec<usize> = lags
            .iter()
            .enumerate()
            .filter(|&(_, &lag)| lag <= max_lag)
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() {
            self.router.lock().primary_reads += 1;
            return self.primary.collection(collection).find(filter);
        }
        let pick = {
            let mut rt = self.router.lock();
            let pick = eligible[rt.cursor % eligible.len()];
            rt.cursor += 1;
            rt.secondary_reads += 1;
            pick
        };
        self.secondaries[pick].collection(collection).find(filter)
    }

    /// Current replication lag (pending entries) per secondary.
    pub fn lag(&self) -> Vec<usize> {
        let oplog_len = self.oplog.lock().ends.len();
        self.applied.lock().iter().map(|a| oplog_len - a).collect()
    }

    /// Fail over: the most-caught-up secondary becomes primary; writes
    /// it never saw are lost (returned as the number of dropped oplog
    /// entries). The old primary is discarded (it crashed).
    pub fn failover(&mut self) -> Result<usize> {
        if self.secondaries.is_empty() {
            return Err(StoreError::Persistence("no secondary to promote".into()));
        }
        let applied = self.applied.lock().clone();
        let (best, &best_applied) = applied
            .iter()
            .enumerate()
            .max_by_key(|(_, &a)| a)
            .expect("non-empty");
        // Keep what the new primary actually has, in a fresh log that
        // becomes its journal: the old primary keeps the orphaned one,
        // so a write through a handle taken from it before the failover
        // never reaches the set.
        let mut kept = std::mem::take(&mut *self.oplog.lock());
        let lost = kept.ends.len() - best_applied;
        kept.truncate(best_applied);
        self.oplog = Arc::new(OrderedMutex::new(LockRank::Journal, kept));
        self.primary = self.secondaries.remove(best);
        self.primary
            .attach_journal(self.oplog.clone(), Barrier::Append);
        let mut applied = self.applied.lock();
        applied.remove(best);
        for a in applied.iter_mut() {
            *a = (*a).min(best_applied);
        }
        Ok(lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn sharding_distributes_documents() {
        let cluster = ShardedCluster::new(4, "chemsys");
        for i in 0..200 {
            cluster
                .insert_one(
                    "materials",
                    json!({"chemsys": format!("sys-{}", i % 37), "n": i}),
                )
                .unwrap();
        }
        let dist = cluster.distribution("materials");
        assert_eq!(dist.iter().sum::<usize>(), 200);
        // Hash sharding must not send everything to one shard.
        assert!(dist.iter().all(|&n| n > 10), "unbalanced: {dist:?}");
    }

    #[test]
    fn missing_shard_key_rejected() {
        let cluster = ShardedCluster::new(2, "chemsys");
        assert!(cluster.insert_one("m", json!({"x": 1})).is_err());
    }

    #[test]
    fn targeted_vs_scatter_gather() {
        let cluster = ShardedCluster::new(4, "chemsys");
        for i in 0..100 {
            cluster
                .insert_one("m", json!({"chemsys": format!("s{}", i % 10), "gap": i}))
                .unwrap();
        }
        // Equality on the shard key → targeted, single shard.
        let hits = cluster.find("m", &json!({"chemsys": "s3"})).unwrap();
        assert_eq!(hits.len(), 10);
        // Range query → scatter-gather.
        let hits = cluster.find("m", &json!({"gap": {"$gte": 90}})).unwrap();
        assert_eq!(hits.len(), 10);
        let (targeted, scatter) = cluster.routing_stats();
        assert_eq!((targeted, scatter), (1, 1));
    }

    #[test]
    fn cluster_count_and_update() {
        let cluster = ShardedCluster::new(3, "k");
        for i in 0..30 {
            cluster.insert_one("c", json!({"k": i, "v": 0})).unwrap();
        }
        assert_eq!(cluster.count("c", &json!({})).unwrap(), 30);
        let r = cluster
            .update_many("c", &json!({"v": 0}), &json!({"$set": {"v": 1}}))
            .unwrap();
        assert_eq!(r.modified, 30);
        assert_eq!(cluster.count("c", &json!({"v": 1})).unwrap(), 30);
    }

    /// A targeted read finds what a single `Database` finds, whichever
    /// numeric form the document and the filter spell the key in:
    /// `values_equal(1, 1.0)` holds, so both must route to one shard.
    #[test]
    fn int_and_float_shard_keys_agree_with_a_single_database() {
        let ns = |docs: Docs| -> Vec<Value> {
            let mut ns: Vec<Value> = docs.iter().map(|d| d["n"].clone()).collect();
            ns.sort_by_key(|n| n.as_i64());
            ns
        };
        for shards in 2..=8 {
            let cluster = ShardedCluster::new(shards, "k");
            let single = Database::new();
            for i in 0..20i64 {
                let k = if i % 2 == 0 {
                    json!(i)
                } else {
                    json!(i as f64)
                };
                let doc = json!({"k": k, "n": i});
                cluster.insert_one("c", doc.clone()).unwrap();
                single.collection("c").insert_one(doc).unwrap();
            }
            for i in 0..20i64 {
                for filter in [json!({"k": i}), json!({"k": i as f64})] {
                    let want = single.collection("c").find(&filter).unwrap();
                    assert_eq!(want.len(), 1, "{filter}");
                    let got = cluster.find("c", &filter).unwrap();
                    assert_eq!(ns(got), ns(want), "{shards} shards, find {filter}");
                    assert_eq!(
                        cluster.count("c", &filter).unwrap(),
                        single.collection("c").count(&filter).unwrap(),
                        "{shards} shards, count {filter}"
                    );
                }
            }
        }
    }

    #[test]
    fn cluster_grows_and_rebalances() {
        let cluster = ShardedCluster::new(2, "k");
        for i in 0..100 {
            cluster.insert_one("c", json!({"k": i, "_id": i})).unwrap();
        }
        // Grow to 4 shards: reuse the two existing databases, add two
        // empty ones, then migrate misplaced documents.
        let mut shards: Vec<Database> = (0..2).map(|i| cluster.shard(i).clone()).collect();
        shards.push(Database::new());
        shards.push(Database::new());
        let grown = ShardedCluster::from_shards(shards, "k");
        let moved = grown.rebalance("c").unwrap();
        assert!(moved > 0, "growing 2→4 shards must relocate documents");
        assert_eq!(grown.rebalance("c").unwrap(), 0, "rebalance is idempotent");
        assert_eq!(grown.count("c", &json!({})).unwrap(), 100);
        // Targeted reads route correctly after the migration.
        for i in 0..100 {
            assert_eq!(grown.find("c", &json!({"k": i})).unwrap().len(), 1);
        }
        let dist = grown.distribution("c");
        assert!(dist.iter().all(|&n| n > 0), "unbalanced: {dist:?}");
    }

    #[test]
    fn replication_catches_up() {
        let rs = ReplicaSet::new(2, 10);
        for i in 0..25 {
            rs.insert_one("c", json!({ "i": i })).unwrap();
        }
        assert_eq!(rs.lag(), vec![25, 25]);
        rs.replicate().unwrap();
        assert_eq!(rs.lag(), vec![15, 15]);
        rs.replicate().unwrap();
        let final_lag = rs.replicate().unwrap();
        assert_eq!(final_lag, 0);
        // Secondaries now serve the full dataset.
        let hits = rs
            .find(ReadPreference::Secondary, "c", &json!({"i": {"$gte": 0}}))
            .unwrap();
        assert_eq!(hits.len(), 25);
    }

    #[test]
    fn stale_secondary_reads_are_visible_as_staleness() {
        let rs = ReplicaSet::new(1, 5);
        for i in 0..10 {
            rs.insert_one("c", json!({ "i": i })).unwrap();
        }
        rs.replicate().unwrap(); // only 5 applied
        let primary = rs.find(ReadPreference::Primary, "c", &json!({})).unwrap();
        let secondary = rs.find(ReadPreference::Secondary, "c", &json!({})).unwrap();
        assert_eq!(primary.len(), 10);
        assert_eq!(secondary.len(), 5, "secondary lags by design");
    }

    #[test]
    fn updates_replicate_too() {
        let rs = ReplicaSet::new(1, 100);
        rs.insert_one("c", json!({"_id": 1, "v": 0})).unwrap();
        rs.update_many("c", &json!({"_id": 1}), &json!({"$set": {"v": 9}}))
            .unwrap();
        rs.replicate().unwrap();
        let sec = rs
            .find(ReadPreference::Secondary, "c", &json!({"_id": 1}))
            .unwrap();
        assert_eq!(sec[0]["v"], json!(9));
    }

    #[test]
    fn tolerant_reads_round_robin_caught_up_secondaries() {
        let rs = ReplicaSet::new(2, 100);
        for i in 0..4 {
            rs.insert_one("c", json!({ "i": i })).unwrap();
        }
        while rs.replicate().unwrap() > 0 {}
        // Stamp each secondary out-of-band so the serving replica is
        // observable from the read result.
        rs.secondary(0)
            .collection("who")
            .insert_one(json!({"sec": 0}))
            .unwrap();
        rs.secondary(1)
            .collection("who")
            .insert_one(json!({"sec": 1}))
            .unwrap();
        let mut served = Vec::new();
        for _ in 0..4 {
            let hits = rs.find_with_tolerance(0, "who", &json!({})).unwrap();
            assert_eq!(hits.len(), 1);
            served.push(hits[0]["sec"].as_i64().unwrap());
        }
        served.sort_unstable();
        assert_eq!(
            served,
            vec![0, 0, 1, 1],
            "caught-up secondaries must share the reads round-robin"
        );
        let (primary, secondary) = rs.read_distribution();
        assert_eq!(
            (primary, secondary),
            (0, 4),
            "max_lag == 0 with caught-up secondaries must not touch the primary"
        );
    }

    #[test]
    fn tolerant_reads_fall_back_to_primary_when_all_lag() {
        let rs = ReplicaSet::new(2, 1);
        for i in 0..5 {
            rs.insert_one("c", json!({ "i": i })).unwrap();
        }
        // Nothing replicated yet: every secondary lags by 5 > 0.
        let hits = rs.find_with_tolerance(0, "c", &json!({})).unwrap();
        assert_eq!(hits.len(), 5, "primary serves when no secondary qualifies");
        assert_eq!(rs.read_distribution(), (1, 0));
        // A tolerance of 5 admits the (empty, stale) secondaries again.
        let hits = rs.find_with_tolerance(5, "c", &json!({})).unwrap();
        assert_eq!(hits.len(), 0, "stale secondary has applied nothing yet");
        assert_eq!(rs.read_distribution(), (1, 1));
    }

    #[test]
    fn failover_promotes_most_caught_up_and_bounds_loss() {
        let mut rs = ReplicaSet::new(2, 6);
        for i in 0..10 {
            rs.insert_one("c", json!({ "i": i })).unwrap();
        }
        rs.replicate().unwrap(); // both secondaries at 6/10
        let lost = rs.failover().unwrap();
        assert_eq!(lost, 4, "un-replicated writes are lost");
        // The new primary serves the replicated prefix and accepts writes.
        assert_eq!(
            rs.find(ReadPreference::Primary, "c", &json!({}))
                .unwrap()
                .len(),
            6
        );
        rs.insert_one("c", json!({"i": 99})).unwrap();
        assert_eq!(
            rs.find(ReadPreference::Primary, "c", &json!({}))
                .unwrap()
                .len(),
            7
        );
    }

    #[test]
    fn failover_without_secondaries_fails() {
        let mut rs = ReplicaSet::new(0, 1);
        assert!(rs.failover().is_err());
    }
}
