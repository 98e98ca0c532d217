//! Durability: snapshot + checksummed write-ahead log, with crash
//! recovery and group commit.
//!
//! The production MongoDB deployment journals writes ahead of the data
//! files; we reproduce the same recovery semantics with two files per
//! store directory: a `snapshot.jsonl` (one line per document: `{"c":
//! collection, "d": doc}`, plus one line per index definition: `{"c":
//! collection, "idx": {"path": p, "unique": u}}`) and a `journal.wal` of
//! CRC32-framed operation records appended *before* each operation is
//! applied in memory. Recovery loads the snapshot then replays the WAL.
//!
//! ## Frame format
//!
//! Each WAL record is a binary frame:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes of JSON]
//! ```
//!
//! where `crc32` is the IEEE CRC-32 of the payload. The checksum turns
//! every torn or flipped byte into a *detected* bad frame, so recovery
//! can truncate the replay point at the first bad frame instead of
//! guessing where a JSON line was supposed to end (the PR 7 JSON-lines
//! journal could only classify the final record).
//!
//! ## Recovery policy
//!
//! Frames are decoded in order ([`decode_frame`], the checksum gate) and
//! each decoded op is applied ([`JournalOp::apply`]) — verify strictly
//! before apply, which `mp-lint order` proves as O005.
//!
//! * A frame that runs past end-of-file is a **torn tail**: the crash
//!   interrupted that append, its operation was never acknowledged, and
//!   recovery skips it ([`RecoveryReport::torn_tail`]).
//! * A complete frame whose checksum mismatches is **corruption**: the
//!   replay point truncates there ([`RecoveryReport::corruption`]) —
//!   with length-prefixed framing nothing after a bad frame can be
//!   trusted, so the tail is dropped *by design*, not silently.
//! * In both cases the file is physically truncated to the last good
//!   frame ([`RecoveryReport::replay_lsn`]) so subsequent appends start
//!   from a clean boundary. (The PR 7 journal re-appended after a torn
//!   tail, which turned the next recovery into a hard mid-file error.)
//! * A checksum-valid frame that fails to parse is a hard error: the
//!   CRC proves we wrote those bytes, so the store itself is buggy.
//!
//! ## Group commit
//!
//! Appends go to the OS (`BufWriter` + flush) under the WAL lock;
//! durability comes from a separate [`GroupCommit`] barrier. A
//! committer calls [`GroupCommit::sync_to`] with the LSN (byte offset)
//! its append reached: whoever acquires the sync lock first fsyncs once
//! for *every* committer queued behind it, and the queued committers
//! observe their LSN already durable and return without touching the
//! disk. Batching emerges from contention — no timers, no threads.
//!
//! Replay determinism: [`JournalOp::apply`] is best-effort (a failing
//! op is skipped). The live write-ahead path journals an operation
//! before applying it, so an op that failed live (duplicate key, unique
//! violation) is in the WAL; replay reaches the same pre-op state, fails
//! the same deterministic way, and converges on the live outcome.

use crate::database::Database;
use crate::error::{Result, StoreError};
use crate::journal::JournalSink;
use mp_sync::{LockRank, OrderedMutex};
use serde_json::{json, Value};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One journaled operation.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// Insert `doc` into `collection`.
    Insert { collection: String, doc: Value },
    /// Apply `update` to documents matching `filter`.
    Update {
        collection: String,
        filter: Value,
        update: Value,
        many: bool,
    },
    /// Delete documents matching `filter`.
    Delete {
        collection: String,
        filter: Value,
        many: bool,
    },
    /// Remove every document (index definitions survive).
    Clear { collection: String },
    /// Create a secondary index on `path`.
    CreateIndex {
        collection: String,
        path: String,
        unique: bool,
    },
    /// Drop the secondary index on `path`.
    DropIndex { collection: String, path: String },
    /// Drop the collection entirely.
    DropCollection { collection: String },
}

impl JournalOp {
    fn to_json(&self) -> Value {
        match self {
            JournalOp::Insert { collection, doc } => {
                json!({"op": "i", "c": collection, "d": doc})
            }
            JournalOp::Update {
                collection,
                filter,
                update,
                many,
            } => json!({"op": "u", "c": collection, "q": filter, "u": update, "m": many}),
            JournalOp::Delete {
                collection,
                filter,
                many,
            } => json!({"op": "d", "c": collection, "q": filter, "m": many}),
            JournalOp::Clear { collection } => json!({"op": "cl", "c": collection}),
            JournalOp::CreateIndex {
                collection,
                path,
                unique,
            } => json!({"op": "ci", "c": collection, "p": path, "uq": unique}),
            JournalOp::DropIndex { collection, path } => {
                json!({"op": "di", "c": collection, "p": path})
            }
            JournalOp::DropCollection { collection } => json!({"op": "dc", "c": collection}),
        }
    }

    fn from_json(v: &Value) -> Result<JournalOp> {
        let op = v["op"].as_str().unwrap_or_default();
        let collection = v["c"]
            .as_str()
            .ok_or_else(|| StoreError::Persistence("journal entry missing collection".into()))?
            .to_string();
        let index_path = |v: &Value| -> Result<String> {
            v["p"]
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| StoreError::Persistence("journal index op missing path".into()))
        };
        Ok(match op {
            "i" => JournalOp::Insert {
                collection,
                doc: v["d"].clone(),
            },
            "u" => JournalOp::Update {
                collection,
                filter: v["q"].clone(),
                update: v["u"].clone(),
                many: v["m"].as_bool().unwrap_or(true),
            },
            "d" => JournalOp::Delete {
                collection,
                filter: v["q"].clone(),
                many: v["m"].as_bool().unwrap_or(true),
            },
            "cl" => JournalOp::Clear { collection },
            "ci" => JournalOp::CreateIndex {
                path: index_path(v)?,
                unique: v["uq"].as_bool().unwrap_or(false),
                collection,
            },
            "di" => JournalOp::DropIndex {
                path: index_path(v)?,
                collection,
            },
            "dc" => JournalOp::DropCollection { collection },
            other => {
                return Err(StoreError::Persistence(format!(
                    "unknown journal op '{other}'"
                )))
            }
        })
    }

    /// Apply this operation to a live database, best-effort. WAL replay
    /// and the replica-set secondary apply path share this, so "what an
    /// op means" is defined exactly once.
    ///
    /// A failing op is *skipped*, never an error: the write-ahead seam
    /// journals before it applies, so the WAL legitimately contains
    /// operations that failed live (a duplicate `_id`, a unique-index
    /// violation). Replay reaches the same pre-op state and the op fails
    /// the same deterministic way — propagating it would turn an
    /// ordinary rejected write into an unrecoverable store.
    pub fn apply(&self, db: &Database) -> Result<()> {
        match self {
            JournalOp::Insert { collection, doc } => {
                let _ = db.collection(collection).insert_one(doc.clone());
            }
            JournalOp::Update {
                collection,
                filter,
                update,
                many,
            } => {
                let _ = db.collection(collection).update(filter, update, *many);
            }
            JournalOp::Delete {
                collection,
                filter,
                many,
            } => {
                let _ = db.collection(collection).delete(filter, *many);
            }
            JournalOp::Clear { collection } => {
                let _ = db.collection(collection).clear();
            }
            JournalOp::CreateIndex {
                collection,
                path,
                unique,
            } => {
                let _ = db.collection(collection).create_index(path, *unique);
            }
            JournalOp::DropIndex { collection, path } => {
                let _ = db.collection(collection).drop_index(path);
            }
            JournalOp::DropCollection { collection } => {
                let _ = db.drop_collection(collection);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE) and the frame codec.
// ---------------------------------------------------------------------

/// IEEE CRC-32 lookup table, built at compile time (reflected
/// polynomial 0xEDB88320 — the zlib/gzip/`cksum -o 3` checksum).
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        // mp-flow: allow(R002) — index masked to 0..=255, table has 256 entries; flagged only now that every `Collection` mutator reaches the WAL
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Encode one WAL frame: `[len u32 LE][crc32 u32 LE][payload]`.
///
/// This is the checksum-framing gate `mp-lint order` proves (O003):
/// every byte the journal appends must pass through here.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 8);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Outcome of decoding the frame at one offset.
pub enum FrameDecode<'a> {
    /// A checksum-valid frame; `next` is the offset just past it.
    Frame { payload: &'a [u8], next: usize },
    /// The frame runs past end-of-file: a torn tail.
    Torn(String),
    /// A complete frame whose checksum mismatches: corruption.
    Corrupt(String),
}

/// Decode (and checksum-verify) the frame starting at `off`. The
/// recovery loop calls this before any op is applied — the O005
/// verify-before-apply gate.
pub fn decode_frame(bytes: &[u8], off: usize) -> FrameDecode<'_> {
    let n = bytes.len();
    if off + 8 > n {
        return FrameDecode::Torn(format!(
            "frame header torn at byte {off} ({} of 8 header bytes present)",
            n - off
        ));
    }
    // mp-flow: allow(R002) — off + 8 <= n checked above
    let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap_or_default()) as usize;
    // mp-flow: allow(R002) — same check; flagged only now that every `Collection` mutator reaches the WAL
    let want = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap_or_default());
    let end = off + 8 + len;
    if end > n {
        return FrameDecode::Torn(format!(
            "frame at byte {off} claims {len} payload bytes but only {} remain",
            n - off - 8
        ));
    }
    // mp-flow: allow(R002) — end <= n checked above
    let payload = &bytes[off + 8..end];
    let got = crc32(payload);
    if got != want {
        return FrameDecode::Corrupt(format!(
            "frame at byte {off}: crc32 {got:08x} != recorded {want:08x}"
        ));
    }
    FrameDecode::Frame { payload, next: end }
}

// ---------------------------------------------------------------------
// Group commit.
// ---------------------------------------------------------------------

/// State behind the sync lock: the WAL file handle to fsync (absent
/// until the first append after open or checkpoint rotation).
struct SyncState {
    file: Option<File>,
}

/// The durability barrier shared by every committer of one WAL.
///
/// LSNs are byte offsets into the current WAL generation. `appended`
/// advances under the WAL lock as frames reach the OS; `durable`
/// advances when an fsync returns. `sync_to(lsn)` is the barrier: it
/// returns once `lsn` is durable, fsyncing at most once — the committer
/// that wins the sync lock covers everyone queued behind it (their
/// re-check sees `durable` already past their LSN). Checkpoint rotation
/// resets the generation; a committer whose barrier straddles the
/// rotation is already covered by the snapshot, which captured its
/// applied op before truncating the WAL.
pub struct GroupCommit {
    inner: OrderedMutex<SyncState>,
    /// Bytes appended (flushed to the OS) in this WAL generation.
    appended: AtomicU64,
    /// Bytes proven durable by an fsync in this WAL generation.
    durable: AtomicU64,
    /// Actual `sync_data` calls issued (for the batching tests/bench).
    syncs: AtomicU64,
    /// `sync_to` barriers requested.
    commits: AtomicU64,
}

impl GroupCommit {
    fn new() -> Self {
        GroupCommit {
            inner: OrderedMutex::new(LockRank::JournalSync, SyncState { file: None }),
            appended: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            commits: AtomicU64::new(0),
        }
    }

    /// Install the WAL file handle for a new generation whose first
    /// `len` bytes are already durable.
    fn register(&self, file: File, len: u64) {
        let mut st = self.inner.lock();
        st.file = Some(file);
        self.appended.store(len, Ordering::SeqCst);
        self.durable.store(len, Ordering::SeqCst);
    }

    /// Start a new generation (checkpoint rotated the WAL away).
    fn reset(&self) {
        let mut st = self.inner.lock();
        st.file = None;
        self.appended.store(0, Ordering::SeqCst);
        self.durable.store(0, Ordering::SeqCst);
    }

    /// Record that the WAL now holds `len` OS-flushed bytes.
    fn note_appended(&self, len: u64) {
        self.appended.fetch_max(len, Ordering::SeqCst);
    }

    /// Block until byte offset `lsn` of the current WAL generation is
    /// durable. One fsync covers every committer queued on the lock.
    // mp-lint: allow(E003) — group commit: one leader fsyncs for every committer queued behind this mutex; the wait *is* the batching, so the I/O belongs under the guard
    pub fn sync_to(&self, lsn: u64) -> Result<()> {
        self.commits.fetch_add(1, Ordering::Relaxed);
        if self.durable.load(Ordering::SeqCst) >= lsn {
            return Ok(()); // someone else's fsync already covered us
        }
        let st = self.inner.lock();
        if self.durable.load(Ordering::SeqCst) >= lsn {
            return Ok(()); // the leader ahead of us covered our LSN
        }
        // We are the leader: capture how far appends have reached, then
        // one sync_data covers this barrier and everyone queued behind.
        let target = self.appended.load(Ordering::SeqCst);
        if let Some(f) = st.file.as_ref() {
            f.sync_data()
                .map_err(|e| StoreError::Persistence(format!("wal fsync: {e}")))?;
            self.syncs.fetch_add(1, Ordering::Relaxed);
            self.durable.fetch_max(target, Ordering::SeqCst);
        }
        // No file: the generation rotated under us, which means a
        // checkpoint snapshot (itself fsynced) superseded this LSN.
        Ok(())
    }

    /// (`sync_to` barriers requested, actual fsyncs issued). The gap is
    /// the group-commit batching win.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.commits.load(Ordering::Relaxed),
            self.syncs.load(Ordering::Relaxed),
        )
    }
}

// ---------------------------------------------------------------------
// Recovery report and the persister.
// ---------------------------------------------------------------------

/// What recovery found and did, for callers that need more than the
/// database itself (operational logging, the crash-matrix tests).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Documents loaded from `snapshot.jsonl`.
    pub snapshot_docs: usize,
    /// WAL operations replayed.
    pub replayed_ops: usize,
    /// Description of a torn trailing frame that was skipped, when the
    /// crash interrupted the final append.
    pub torn_tail: Option<String>,
    /// Description of a checksum-failed frame that truncated the replay
    /// point mid-file.
    pub corruption: Option<String>,
    /// Byte offset of the end of the last good frame; the WAL is
    /// physically truncated here so new appends start clean.
    pub replay_lsn: u64,
}

/// Snapshot/WAL manager rooted at a directory.
pub struct Persister {
    dir: PathBuf,
    wal: Option<BufWriter<File>>,
    /// Bytes in the current WAL generation (replayed + appended).
    wal_len: u64,
    sync: Arc<GroupCommit>,
    /// Checkpoint once the WAL outgrows this many bytes
    /// ([`crate::durable::DurableOptions::compact_after_bytes`]).
    pub(crate) compact_after_bytes: Option<u64>,
}

/// The file WAL as a database's journal: one checksummed frame per op.
impl JournalSink for Persister {
    fn append_op(&mut self, op: &JournalOp) -> Result<(u64, bool)> {
        let lsn = self.append_ops(std::slice::from_ref(op))?;
        Ok((
            lsn,
            self.compact_after_bytes.is_some_and(|limit| lsn > limit),
        ))
    }

    fn maybe_checkpoint(&mut self, db: &Database) -> Result<()> {
        match self.compact_after_bytes {
            Some(limit) if self.wal_len > limit => self.snapshot(db),
            _ => Ok(()),
        }
    }
}

impl Persister {
    /// Open (creating the directory if needed).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::Persistence(format!("create {}: {e}", dir.display())))?;
        Ok(Persister {
            dir,
            wal: None,
            wal_len: 0,
            sync: Arc::new(GroupCommit::new()),
            compact_after_bytes: None,
        })
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.jsonl")
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("journal.wal")
    }

    /// The shared durability barrier for this WAL.
    pub fn sync_handle(&self) -> Arc<GroupCommit> {
        Arc::clone(&self.sync)
    }

    /// Bytes in the current WAL generation (compaction trigger input).
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// Write a full snapshot of `db` — index definitions first, then
    /// every document — fsync it, and truncate the WAL.
    pub fn snapshot(&mut self, db: &Database) -> Result<()> {
        let tmp = self.dir.join("snapshot.jsonl.tmp");
        {
            let f = File::create(&tmp)
                .map_err(|e| StoreError::Persistence(format!("snapshot: {e}")))?;
            let mut w = BufWriter::new(f);
            for name in db.collection_names() {
                let coll = db.collection(&name);
                // Index definitions precede the documents so unique
                // constraints are enforced while the docs stream back in.
                for (path, unique) in coll.index_specs() {
                    let line = json!({"c": name, "idx": {"path": path, "unique": unique}});
                    writeln!(w, "{line}")
                        .map_err(|e| StoreError::Persistence(format!("snapshot write: {e}")))?;
                }
                for doc in coll.dump() {
                    // `doc` is a shared Arc handle; borrow it into the
                    // snapshot line rather than cloning the document.
                    let line = json!({"c": name, "d": *doc});
                    writeln!(w, "{line}")
                        .map_err(|e| StoreError::Persistence(format!("snapshot write: {e}")))?;
                }
            }
            w.flush()
                .map_err(|e| StoreError::Persistence(format!("snapshot flush: {e}")))?;
            // The rename only publishes a durable snapshot: sync the
            // data before the name swap, or a crash could leave a named
            // snapshot full of unwritten pages — and no WAL to cover it.
            w.get_ref()
                .sync_data()
                .map_err(|e| StoreError::Persistence(format!("snapshot fsync: {e}")))?;
        }
        std::fs::rename(&tmp, self.snapshot_path())
            .map_err(|e| StoreError::Persistence(format!("snapshot rename: {e}")))?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all(); // persist the rename itself
        }
        // A new snapshot supersedes the WAL: start a fresh generation.
        self.wal = None;
        self.wal_len = 0;
        self.sync.reset();
        let _ = std::fs::remove_file(self.wal_path());
        Ok(())
    }

    fn ensure_wal(&mut self) -> Result<&mut BufWriter<File>> {
        if self.wal.is_none() {
            let f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.wal_path())
                .map_err(|e| StoreError::Persistence(format!("wal open: {e}")))?;
            let dup = f
                .try_clone()
                .map_err(|e| StoreError::Persistence(format!("wal handle clone: {e}")))?;
            self.sync.register(dup, self.wal_len);
            self.wal = Some(BufWriter::new(f));
        }
        match self.wal.as_mut() {
            Some(w) => Ok(w),
            None => Err(StoreError::Persistence("wal writer unavailable".into())),
        }
    }

    /// Append a batch of operations as checksummed frames and flush
    /// them to the OS. Returns the LSN (byte offset past the batch) to
    /// hand to [`GroupCommit::sync_to`] — the commit seam
    /// ([`crate::journal`]) appends through this *before* applying the
    /// op in memory.
    pub fn append_ops(&mut self, ops: &[JournalOp]) -> Result<u64> {
        if ops.is_empty() {
            return Ok(self.wal_len);
        }
        let mut batch = Vec::new();
        for op in ops {
            batch.extend_from_slice(&frame_record(op.to_json().to_string().as_bytes()));
        }
        let w = self.ensure_wal()?;
        w.write_all(&batch)
            .map_err(|e| StoreError::Persistence(format!("wal write: {e}")))?;
        w.flush()
            .map_err(|e| StoreError::Persistence(format!("wal flush: {e}")))?;
        self.wal_len += batch.len() as u64;
        self.sync.note_appended(self.wal_len);
        Ok(self.wal_len)
    }

    /// Rebuild a database from snapshot + WAL replay. See
    /// [`Persister::recover_with_report`] for the bad-frame policy.
    pub fn recover(&mut self) -> Result<Database> {
        self.recover_with_report().map(|(db, _)| db)
    }

    /// Rebuild a database from snapshot + WAL replay, reporting what
    /// was loaded.
    ///
    /// Each frame is checksum-verified ([`decode_frame`]) before its op
    /// is applied. A frame running past end-of-file is a torn tail; a
    /// complete frame with a bad checksum is corruption; either one
    /// truncates the replay point (and the file) at the last good
    /// frame. A checksum-valid frame that fails to parse is a hard
    /// error — the CRC proves the store wrote those bytes itself.
    pub fn recover_with_report(&mut self) -> Result<(Database, RecoveryReport)> {
        let db = Database::new();
        let mut report = RecoveryReport::default();
        if let Ok(f) = File::open(self.snapshot_path()) {
            for line in BufReader::new(f).lines() {
                let line =
                    line.map_err(|e| StoreError::Persistence(format!("snapshot read: {e}")))?;
                if line.trim().is_empty() {
                    continue;
                }
                let v: Value = serde_json::from_str(&line)
                    .map_err(|e| StoreError::Persistence(format!("snapshot parse: {e}")))?;
                let cname = v["c"]
                    .as_str()
                    .ok_or_else(|| StoreError::Persistence("snapshot entry missing c".into()))?;
                if let Some(idx) = v.get("idx") {
                    let path = idx["path"].as_str().ok_or_else(|| {
                        StoreError::Persistence("snapshot index entry missing path".into())
                    })?;
                    let unique = idx["unique"].as_bool().unwrap_or(false);
                    db.collection(cname).create_index(path, unique)?;
                } else {
                    db.collection(cname).insert_one(v["d"].clone())?;
                    report.snapshot_docs += 1;
                }
            }
        }
        if let Ok(bytes) = std::fs::read(self.wal_path()) {
            let mut off = 0usize;
            while off < bytes.len() {
                match decode_frame(&bytes, off) {
                    FrameDecode::Frame { payload, next } => {
                        let op = std::str::from_utf8(payload)
                            .map_err(|e| StoreError::Persistence(format!("wal not UTF-8: {e}")))
                            .and_then(|s| {
                                serde_json::from_str::<Value>(s).map_err(|e| {
                                    StoreError::Persistence(format!("wal not JSON: {e}"))
                                })
                            })
                            .and_then(|v| JournalOp::from_json(&v))
                            .map_err(|e| {
                                StoreError::Persistence(format!(
                                    "wal frame at byte {off} passed its checksum but failed to \
                                     parse — the store wrote a bad record: {e}"
                                ))
                            })?;
                        op.apply(&db)?;
                        report.replayed_ops += 1;
                        off = next;
                    }
                    FrameDecode::Torn(msg) => {
                        let msg = format!("skipping torn wal tail: {msg}");
                        eprintln!("mp-docstore: warning: {msg}");
                        report.torn_tail = Some(msg);
                        break;
                    }
                    FrameDecode::Corrupt(msg) => {
                        let msg = format!("truncating wal replay at first corrupt frame: {msg}");
                        eprintln!("mp-docstore: warning: {msg}");
                        report.corruption = Some(msg);
                        break;
                    }
                }
            }
            report.replay_lsn = off as u64;
            if (off as u64) < bytes.len() as u64 {
                // Physically drop the bad tail so the next append does
                // not bury a torn frame mid-file (where the next
                // recovery would read it as corruption).
                let f = OpenOptions::new()
                    .write(true)
                    .open(self.wal_path())
                    .map_err(|e| StoreError::Persistence(format!("wal truncate open: {e}")))?;
                f.set_len(off as u64)
                    .map_err(|e| StoreError::Persistence(format!("wal truncate: {e}")))?;
                f.sync_data()
                    .map_err(|e| StoreError::Persistence(format!("wal truncate fsync: {e}")))?;
            }
        }
        self.wal_len = report.replay_lsn;
        Ok((db, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mp-docstore-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip() {
        let frame = frame_record(b"hello");
        match decode_frame(&frame, 0) {
            FrameDecode::Frame { payload, next } => {
                assert_eq!(payload, b"hello");
                assert_eq!(next, frame.len());
            }
            _ => panic!("clean frame must decode"),
        }
    }

    #[test]
    fn snapshot_and_recover() {
        let dir = tmpdir("snap");
        let db = Database::new();
        db.collection("mps")
            .insert_one(json!({"_id": 1, "formula": "Fe2O3"}))
            .unwrap();
        db.collection("tasks")
            .insert_one(json!({"_id": 2, "state": "DONE"}))
            .unwrap();

        let mut p = Persister::open(&dir).unwrap();
        p.snapshot(&db).unwrap();

        let rec = Persister::open(&dir).unwrap().recover().unwrap();
        assert_eq!(rec.collection("mps").len(), 1);
        assert_eq!(rec.collection("tasks").len(), 1);
        assert_eq!(
            rec.collection("mps")
                .find_one(&json!({"_id": 1}))
                .unwrap()
                .unwrap()["formula"],
            json!("Fe2O3")
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn snapshot_preserves_index_definitions() {
        let dir = tmpdir("snapidx");
        let db = Database::new();
        let c = db.collection("c");
        c.create_index("k", true).unwrap();
        c.create_index("grp", false).unwrap();
        c.insert_one(json!({"_id": 1, "k": 1, "grp": "a"})).unwrap();

        let mut p = Persister::open(&dir).unwrap();
        p.snapshot(&db).unwrap();

        let rec = Persister::open(&dir).unwrap().recover().unwrap();
        assert_eq!(
            rec.collection("c").index_specs(),
            vec![("k".to_string(), true), ("grp".to_string(), false)]
        );
        // The unique constraint is live again, not just the plan.
        assert!(rec.collection("c").insert_one(json!({"k": 1})).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn wal_replay_after_snapshot() {
        let dir = tmpdir("journal");
        let db = Database::new();
        db.collection("c")
            .insert_one(json!({"_id": 1, "n": 0}))
            .unwrap();
        let mut p = Persister::open(&dir).unwrap();
        p.snapshot(&db).unwrap();

        p.append_ops(&[
            JournalOp::Insert {
                collection: "c".into(),
                doc: json!({"_id": 2, "n": 5}),
            },
            JournalOp::Update {
                collection: "c".into(),
                filter: json!({"_id": 1}),
                update: json!({"$inc": {"n": 7}}),
                many: false,
            },
            JournalOp::Delete {
                collection: "c".into(),
                filter: json!({"_id": 2}),
                many: false,
            },
        ])
        .unwrap();

        let rec = Persister::open(&dir).unwrap().recover().unwrap();
        assert_eq!(rec.collection("c").len(), 1);
        assert_eq!(
            rec.collection("c")
                .find_one(&json!({"_id": 1}))
                .unwrap()
                .unwrap()["n"],
            json!(7)
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn append_returns_monotonic_lsn_equal_to_file_length() {
        let dir = tmpdir("lsn");
        let mut p = Persister::open(&dir).unwrap();
        let l1 = p
            .append_ops(&[JournalOp::Clear {
                collection: "c".into(),
            }])
            .unwrap();
        let l2 = p
            .append_ops(&[JournalOp::Clear {
                collection: "c".into(),
            }])
            .unwrap();
        assert!(l2 > l1);
        assert_eq!(
            l2,
            std::fs::metadata(dir.join("journal.wal")).unwrap().len()
        );
        assert_eq!(p.wal_len(), l2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn group_commit_fast_path_skips_redundant_fsync() {
        let dir = tmpdir("gc");
        let mut p = Persister::open(&dir).unwrap();
        let lsn = p
            .append_ops(&[JournalOp::Clear {
                collection: "c".into(),
            }])
            .unwrap();
        let sync = p.sync_handle();
        sync.sync_to(lsn).unwrap();
        sync.sync_to(lsn).unwrap(); // already durable: no second fsync
        let (commits, syncs) = sync.stats();
        assert_eq!(commits, 2);
        assert_eq!(syncs, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn ddl_ops_replay_to_same_state() {
        let dir = tmpdir("ddl");
        let db = Database::new();
        let mut p = Persister::open(&dir).unwrap();
        p.snapshot(&db).unwrap();

        p.append_ops(&[
            JournalOp::CreateIndex {
                collection: "c".into(),
                path: "k".into(),
                unique: true,
            },
            JournalOp::Insert {
                collection: "c".into(),
                doc: json!({"_id": 1, "k": 1}),
            },
            JournalOp::Insert {
                collection: "c".into(),
                doc: json!({"_id": 2, "k": 2}),
            },
            JournalOp::DropIndex {
                collection: "c".into(),
                path: "k".into(),
            },
            JournalOp::Clear {
                collection: "c".into(),
            },
            JournalOp::Insert {
                collection: "c".into(),
                doc: json!({"_id": 3}),
            },
            JournalOp::Insert {
                collection: "gone".into(),
                doc: json!({"_id": 9}),
            },
            JournalOp::DropCollection {
                collection: "gone".into(),
            },
        ])
        .unwrap();

        let (rec, report) = Persister::open(&dir)
            .unwrap()
            .recover_with_report()
            .unwrap();
        assert_eq!(report.replayed_ops, 8);
        assert!(report.torn_tail.is_none());
        assert!(report.corruption.is_none());
        assert_eq!(rec.collection("c").len(), 1);
        assert!(rec.collection("c").get(&json!(3)).is_some());
        assert!(rec.collection("c").index_specs().is_empty());
        assert_eq!(rec.collection_names(), vec!["c".to_string()]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_wal_tail_tolerated_and_truncated() {
        let dir = tmpdir("torn");
        let db = Database::new();
        let mut p = Persister::open(&dir).unwrap();
        p.snapshot(&db).unwrap();
        let good_lsn = p
            .append_ops(&[JournalOp::Insert {
                collection: "c".into(),
                doc: json!({"_id": 1}),
            }])
            .unwrap();
        // Simulate a crash mid-append: half a frame of a second insert.
        let frame = frame_record(
            JournalOp::Insert {
                collection: "c".into(),
                doc: json!({"_id": 2}),
            }
            .to_json()
            .to_string()
            .as_bytes(),
        );
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join("journal.wal"))
                .unwrap();
            use std::io::Write as _;
            f.write_all(&frame[..frame.len() / 2]).unwrap();
        }

        let (rec, report) = Persister::open(&dir)
            .unwrap()
            .recover_with_report()
            .unwrap();
        assert_eq!(rec.collection("c").len(), 1);
        assert!(report.torn_tail.is_some(), "{report:?}");
        assert_eq!(report.replayed_ops, 1);
        assert_eq!(report.replay_lsn, good_lsn);
        // The torn bytes are gone: the file ends at the replay point,
        // so a re-append lands on a clean frame boundary.
        assert_eq!(
            std::fs::metadata(dir.join("journal.wal")).unwrap().len(),
            good_lsn
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn append_after_torn_tail_recovery_stays_recoverable() {
        // The PR 7 journal failed this: a torn tail left in place, then
        // a new append after it, turned the next recovery into a hard
        // mid-file-corruption error. The WAL truncates on recovery, so
        // the sequence recover → append → recover is always clean.
        let dir = tmpdir("tornappend");
        let mut p = Persister::open(&dir).unwrap();
        p.append_ops(&[JournalOp::Insert {
            collection: "c".into(),
            doc: json!({"_id": 1}),
        }])
        .unwrap();
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join("journal.wal"))
                .unwrap();
            use std::io::Write as _;
            f.write_all(b"\x40\x00").unwrap(); // torn header
        }
        let mut p2 = Persister::open(&dir).unwrap();
        let (_, report) = p2.recover_with_report().unwrap();
        assert!(report.torn_tail.is_some());
        p2.append_ops(&[JournalOp::Insert {
            collection: "c".into(),
            doc: json!({"_id": 2}),
        }])
        .unwrap();
        let (rec, report) = Persister::open(&dir)
            .unwrap()
            .recover_with_report()
            .unwrap();
        assert!(report.torn_tail.is_none(), "{report:?}");
        assert!(report.corruption.is_none(), "{report:?}");
        assert_eq!(rec.collection("c").len(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn mid_file_corruption_truncates_replay_point() {
        let dir = tmpdir("midcorrupt");
        let mut p = Persister::open(&dir).unwrap();
        let lsn1 = p
            .append_ops(&[JournalOp::Insert {
                collection: "c".into(),
                doc: json!({"_id": 1}),
            }])
            .unwrap();
        p.append_ops(&[JournalOp::Insert {
            collection: "c".into(),
            doc: json!({"_id": 2}),
        }])
        .unwrap();
        p.append_ops(&[JournalOp::Insert {
            collection: "c".into(),
            doc: json!({"_id": 3}),
        }])
        .unwrap();
        drop(p);
        // Flip one payload byte of the *middle* frame. The checksum
        // detects it; the replay point truncates there even though a
        // valid frame follows (it cannot be trusted once framing broke).
        let path = dir.join("journal.wal");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[lsn1 as usize + 12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (rec, report) = Persister::open(&dir)
            .unwrap()
            .recover_with_report()
            .unwrap();
        assert!(report.corruption.is_some(), "{report:?}");
        assert_eq!(report.replayed_ops, 1);
        assert_eq!(report.replay_lsn, lsn1);
        assert_eq!(rec.collection("c").len(), 1);
        assert!(rec.collection("c").get(&json!(1)).is_some());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checksum_valid_but_unparseable_frame_is_a_hard_error() {
        let dir = tmpdir("badframe");
        let mut p = Persister::open(&dir).unwrap();
        p.append_ops(&[JournalOp::Insert {
            collection: "c".into(),
            doc: json!({"_id": 1}),
        }])
        .unwrap();
        drop(p);
        let path = dir.join("journal.wal");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame_record(b"{not a journal op}"));
        std::fs::write(&path, &bytes).unwrap();
        let err = Persister::open(&dir).unwrap().recover().err();
        assert!(
            err.is_some(),
            "a frame we provably wrote must parse — refusing is the only safe move"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn recover_empty_dir_gives_empty_db() {
        let dir = tmpdir("empty");
        let rec = Persister::open(&dir).unwrap().recover().unwrap();
        assert!(rec.collection_names().is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }
}
