//! Opening a directory as a durable database: recover whatever
//! snapshot + WAL it holds, then attach the WAL as the database's
//! journal, so every later mutation through *any* handle of it —
//! [`DurableDatabase::database`], a clone held by `LaunchPad` or
//! `QueryEngine`, a bare `Collection` — is written ahead and
//! acknowledged only after the group-commit barrier. The commit
//! protocol itself lives in [`crate::journal`]; this module is the
//! open/checkpoint handle around it.
//!
//! **`$currentDate`** reads the simulated clock, which is not
//! persisted; replaying such an update under a different clock gives a
//! different timestamp.
//!
//! Compaction is log-structured: when the WAL outgrows
//! [`DurableOptions::compact_after_bytes`], the committing call starts
//! a checkpoint — it captures the collections' document handles and
//! seals the WAL generation, which is all it waits for — and a
//! short-lived thread writes the snapshot, publishes it and retires the
//! sealed generation while commits continue. Recovery time tracks the
//! compaction threshold, not total writes. [`DurableDatabase::checkpoint`]
//! runs the same four steps on the caller.

use crate::collection::UpdateResult;
use crate::database::Database;
use crate::error::Result;
use crate::persist::{join_checkpoint, Barrier, Begin, GroupCommit, Persister};
use mp_sync::{LockRank, OrderedMutex};
use serde_json::Value;
use std::path::Path;
use std::sync::Arc;

/// Tunables for the write-ahead store.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Issue the group-commit fsync barrier before acknowledging. `false`
    /// degrades acknowledgment to write-behind durability (the bytes
    /// reach the OS but not necessarily the disk) — the bench baseline,
    /// and MongoDB's `j:false`.
    pub fsync: bool,
    /// Checkpoint (snapshot, then retire the WAL generation it covers)
    /// once the WAL exceeds this many bytes. `None` disables
    /// auto-compaction.
    pub compact_after_bytes: Option<u64>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: true,
            compact_after_bytes: Some(16 * 1024 * 1024),
        }
    }
}

/// A database opened from a directory, whose mutations are write-ahead
/// journaled for crash recovery.
pub struct DurableDatabase {
    db: Database,
    /// The WAL writer, shared with `db` as its journal
    /// (`LockRank::Journal`).
    wal: Arc<OrderedMutex<Persister>>,
    /// Group-commit barrier (`LockRank::JournalSync`).
    sync: Arc<GroupCommit>,
}

impl DurableDatabase {
    /// Open the directory with default options, recovering whatever
    /// snapshot + WAL it holds (an empty directory yields an empty
    /// database).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(dir, DurableOptions::default())
    }

    /// Open with explicit [`DurableOptions`]. The journal is attached
    /// only after recovery has replayed, so replay never journals.
    pub fn open_with(dir: impl AsRef<Path>, opts: DurableOptions) -> Result<Self> {
        let mut persister = Persister::open(dir)?;
        let db = persister.recover()?;
        persister.compact_after_bytes = opts.compact_after_bytes;
        let sync = persister.sync_handle();
        let wal = Arc::new(OrderedMutex::new(LockRank::Journal, persister));
        let barrier = if opts.fsync {
            Barrier::Fsync(sync.clone())
        } else {
            Barrier::Append
        };
        db.attach_journal(wal.clone(), barrier);
        Ok(DurableDatabase { db, wal, sync })
    }

    /// The live database. Every mutation through it (or any clone or
    /// collection handle of it) commits through the WAL.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// (`sync_to` barriers requested, fsyncs actually issued): the gap
    /// is the group-commit batching win.
    pub fn commit_stats(&self) -> (u64, u64) {
        self.sync.stats()
    }

    /// Bytes in the active WAL generation (the compaction trigger
    /// input); falls to zero when a checkpoint seals the generation.
    pub fn wal_len(&self) -> u64 {
        self.wal.lock().wal_len()
    }

    /// Fold the log into a published snapshot: on return, everything
    /// acknowledged before the call is in `snapshot.jsonl` and no WAL
    /// generation older than the active one is left. The WAL guard is
    /// held only to capture handles and seal the generation; the
    /// snapshot is written with it released, so commits continue. A
    /// threshold-triggered checkpoint in flight is waited for first,
    /// and if it already covers the log nothing more is written.
    /// Explicit checkpoints do not queue: one called while another
    /// caller's is being written returns an error.
    pub fn checkpoint(&self) -> Result<()> {
        loop {
            match self.begin_checkpoint()? {
                Begin::InFlight(worker) => join_checkpoint(worker)?,
                Begin::Covered => return Ok(()),
                Begin::Captured(checkpoint) => return Persister::complete(checkpoint),
            }
        }
    }

    /// The one part of a checkpoint that holds the WAL guard.
    fn begin_checkpoint(&self) -> Result<Begin> {
        self.wal.lock().begin_checkpoint(&self.db)
    }

    /// `database().collection(collection).create_index(path, unique)`.
    pub fn create_index(&self, collection: &str, path: &str, unique: bool) -> Result<()> {
        self.db.collection(collection).create_index(path, unique)
    }

    /// `database().collection(collection).insert_many(docs)`.
    pub fn insert_many(&self, collection: &str, docs: Vec<Value>) -> Result<Vec<Value>> {
        self.db.collection(collection).insert_many(docs)
    }

    /// `database().collection(collection).insert_one(doc)`.
    pub fn insert_one(&self, collection: &str, doc: Value) -> Result<Value> {
        self.db.collection(collection).insert_one(doc)
    }

    /// `database().collection(collection).update_one(filter, update)`.
    pub fn update_one(
        &self,
        collection: &str,
        filter: &Value,
        update: &Value,
    ) -> Result<UpdateResult> {
        self.db.collection(collection).update_one(filter, update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{FindOptions, SortDir};
    use serde_json::json;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mp-durable-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn reopen(dir: &Path) -> DurableDatabase {
        DurableDatabase::open(dir).unwrap()
    }

    #[test]
    fn mutations_survive_reopen_without_checkpoint() {
        let dir = tmpdir("reopen");
        {
            let d = DurableDatabase::open(&dir).unwrap();
            d.insert_one("c", json!({"_id": 1, "n": 0})).unwrap();
            d.insert_many("c", vec![json!({"_id": 2}), json!({"_id": 3})])
                .unwrap();
            d.update_one("c", &json!({"_id": 1}), &json!({"$inc": {"n": 5}}))
                .unwrap();
            let c = d.database().collection("c");
            c.delete_one(&json!({"_id": 3})).unwrap();
        }
        let d = reopen(&dir);
        let db = d.database();
        assert_eq!(db.collection("c").len(), 2);
        assert_eq!(db.collection("c").get(&json!(1)).unwrap()["n"], json!(5));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_journaled_bulk_insert_logs_the_records_of_one_by_one_insertion() {
        // Into an empty collection `insert_many` is one build and one
        // apply; its log is one `Insert` frame per document, as the
        // store holds it, behind the generation record — and one barrier.
        use crate::persist::{decode_frame, frame_record, FrameDecode, Framed, JournalOp};
        let dir = tmpdir("bulk");
        let mut docs: Vec<Value> = (0..40).map(|i| json!({"_id": i, "k": i % 3})).collect();
        docs.insert(7, json!({"k": "no id"}));
        let live = {
            let d = DurableDatabase::open(&dir).unwrap();
            let ids = d.insert_many("c", docs).unwrap();
            let (commits, syncs) = d.commit_stats();
            assert_eq!(commits, 1, "one barrier for the build");
            assert!(syncs <= 1);
            let c = d.database().collection("c");
            assert_eq!(ids[7], json!("oid000000000008"));
            let mut frames = Framed::default();
            for doc in c.dump() {
                let op = JournalOp::Insert {
                    collection: "c",
                    doc: &*doc,
                };
                frame_record(&mut frames, &op);
            }
            let wal = std::fs::read(dir.join("journal.wal")).unwrap();
            let FrameDecode::Frame { next, .. } = decode_frame(&wal, 0) else {
                panic!("no generation record");
            };
            assert_eq!(&wal[next..], &*frames);
            assert_eq!(d.wal_len(), wal.len() as u64);
            c.dump()
        };
        assert_eq!(reopen(&dir).database().collection("c").dump(), live);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn ddl_survives_reopen() {
        let dir = tmpdir("ddl");
        {
            let d = DurableDatabase::open(&dir).unwrap();
            d.create_index("c", "k", true).unwrap();
            d.insert_one("c", json!({"k": 1})).unwrap();
            d.database().collection("c").clear().unwrap();
            d.insert_one("gone", json!({"x": 1})).unwrap();
            d.database().drop_collection("gone").unwrap();
        }
        let d = reopen(&dir);
        let db = d.database();
        assert_eq!(db.collection("c").len(), 0);
        assert_eq!(db.collection("c").index_specs(), vec![("k".into(), true)]);
        assert_eq!(db.collection_names(), vec!["c".to_string()]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn upsert_journals_the_materialized_insert() {
        let dir = tmpdir("upsert");
        {
            let d = DurableDatabase::open(&dir).unwrap();
            let c = d.database().collection("c");
            let r = c
                .upsert(&json!({"key": "k1"}), &json!({"$set": {"v": 1}}))
                .unwrap();
            assert!(r.upserted);
            assert!(r.upserted_id.is_some());
            let r = c
                .upsert(&json!({"key": "k1"}), &json!({"$set": {"v": 2}}))
                .unwrap();
            assert!(!r.upserted);
        }
        let d = reopen(&dir);
        let c = d.database().collection("c");
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.find_one(&json!({"key": "k1"})).unwrap().unwrap()["v"],
            json!(2)
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn find_one_and_update_replays_the_sorted_claim() {
        let dir = tmpdir("claim");
        {
            let d = DurableDatabase::open(&dir).unwrap();
            d.insert_many(
                "q",
                vec![
                    json!({"_id": "a", "state": "READY", "prio": 1}),
                    json!({"_id": "b", "state": "READY", "prio": 9}),
                ],
            )
            .unwrap();
            // The sort claims "b"; a naive update_one replay would have
            // claimed "a" (first candidate in _id order). Asked for the
            // pre-image, the caller sees "b" as it was.
            let claimed = d
                .database()
                .collection("q")
                .find_one_and_update(
                    &json!({"state": "READY"}),
                    &json!({"$set": {"state": "RUNNING"}}),
                    Some(&FindOptions::all().sort_by("prio", SortDir::Desc)),
                    false,
                )
                .unwrap()
                .unwrap();
            assert_eq!(claimed["_id"], json!("b"));
            assert_eq!(claimed["state"], json!("READY"));
        }
        let d = reopen(&dir);
        let c = d.database().collection("q");
        assert_eq!(c.get(&json!("b")).unwrap()["state"], json!("RUNNING"));
        assert_eq!(c.get(&json!("a")).unwrap()["state"], json!("READY"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives() {
        let dir = tmpdir("ckpt");
        {
            let d = DurableDatabase::open(&dir).unwrap();
            for i in 0..20 {
                d.insert_one("c", json!({"_id": i})).unwrap();
            }
            d.checkpoint().unwrap();
            assert!(
                !dir.join("journal.wal").exists(),
                "checkpoint must truncate the WAL"
            );
            assert_eq!(d.wal_len(), 0);
            d.insert_one("c", json!({"_id": 100})).unwrap();
        }
        let d = reopen(&dir);
        assert_eq!(d.database().collection("c").len(), 21);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn insert_many_stops_at_first_error_and_replays_identically() {
        let dir = tmpdir("prefix");
        {
            let d = DurableDatabase::open(&dir).unwrap();
            let r = d.insert_many(
                "c",
                vec![
                    json!({"_id": 1}),
                    json!({"_id": 2}),
                    json!({"_id": 1}), // duplicate: fails here
                    json!({"_id": 4}),
                ],
            );
            assert!(r.is_err());
            assert_eq!(d.database().collection("c").len(), 2);
        }
        // The WAL holds the two applied inserts plus the journaled
        // duplicate, which replays as the same rejection — never the
        // post-failure documents.
        let d = reopen(&dir);
        assert_eq!(
            d.database().collection("c").len(),
            2,
            "replay must converge on the live outcome"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rejected_write_replays_as_the_same_rejection() {
        let dir = tmpdir("reject");
        {
            let d = DurableDatabase::open(&dir).unwrap();
            d.create_index("c", "k", true).unwrap();
            d.insert_one("c", json!({"_id": 1, "k": 7})).unwrap();
            // Journaled (write-ahead), then rejected by the unique index.
            assert!(d.insert_one("c", json!({"_id": 2, "k": 7})).is_err());
            d.insert_one("c", json!({"_id": 3, "k": 8})).unwrap();
        }
        let d = reopen(&dir);
        assert_eq!(d.database().collection("c").len(), 2);
        assert!(d.database().collection("c").get(&json!(2)).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn group_commit_batches_a_multi_op_burst() {
        let dir = tmpdir("batch");
        let d = DurableDatabase::open(&dir).unwrap();
        d.insert_many("c", (0..64).map(|i| json!({"_id": i})).collect())
            .unwrap();
        let (commits, syncs) = d.commit_stats();
        assert_eq!(commits, 1, "one barrier per insert_many batch");
        assert!(syncs <= 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn write_behind_mode_skips_the_barrier() {
        let dir = tmpdir("wb");
        let d = DurableDatabase::open_with(
            &dir,
            DurableOptions {
                fsync: false,
                ..DurableOptions::default()
            },
        )
        .unwrap();
        d.insert_one("c", json!({"_id": 1})).unwrap();
        let (commits, syncs) = d.commit_stats();
        assert_eq!((commits, syncs), (0, 0));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn wal_compaction_triggers_at_threshold() {
        let dir = tmpdir("compact");
        let d = DurableDatabase::open_with(
            &dir,
            DurableOptions {
                fsync: true,
                compact_after_bytes: Some(1024),
            },
        )
        .unwrap();
        let mut appended = 0;
        let mut sealed = 0;
        for i in 0..200 {
            let before = d.wal_len();
            d.insert_one("c", json!({"_id": i, "pad": "x".repeat(32)}))
                .unwrap();
            match d.wal_len() {
                // The commit that crossed the threshold sealed the
                // generation and left the snapshot to a thread.
                after if after < before => sealed += 1,
                after => appended += after - before,
            }
        }
        assert!(
            sealed >= 1,
            "the first crossing finds no checkpoint in flight"
        );
        assert!(
            d.wal_len() < appended,
            "sealed generations left the active one, got {}",
            d.wal_len()
        );
        // The last handle waits for the checkpoint in flight.
        drop(d);
        assert!(dir.join("snapshot.jsonl").exists());
        assert!(!dir.join("snapshot.jsonl.tmp").exists());
        let d = reopen(&dir);
        assert_eq!(d.database().collection("c").len(), 200);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The bulk-load shape: one `insert_many` leaves the log far over
    /// its threshold, so its commit starts a checkpoint; the explicit
    /// checkpoint that follows waits for that one and, since it covers
    /// the whole log, writes nothing more.
    #[test]
    fn explicit_checkpoint_joins_the_one_in_flight_that_covers_the_log() {
        let dir = tmpdir("join");
        let d = DurableDatabase::open_with(
            &dir,
            DurableOptions {
                fsync: true,
                compact_after_bytes: Some(1024),
            },
        )
        .unwrap();
        d.insert_many("c", (0..500).map(|i| json!({"_id": i})).collect())
            .unwrap();
        assert_eq!(d.wal_len(), 0, "the bulk commit sealed its generation");
        d.checkpoint().unwrap();
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["snapshot.jsonl"]);
        let (_, report) = Persister::open(&dir)
            .unwrap()
            .recover_with_report()
            .unwrap();
        assert_eq!(report.snapshot_gen, Some(1), "one checkpoint, not two");
        assert_eq!(report.snapshot_docs, 500);
        let _ = std::fs::remove_dir_all(dir);
    }
}
