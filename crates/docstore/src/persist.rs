//! Durability: snapshot + checksummed write-ahead log, with crash
//! recovery, group commit, and checkpoints that do not stop the writer.
//!
//! The production MongoDB deployment journals writes ahead of the data
//! files and keeps one binary document form (BSON) for both; we
//! reproduce the same recovery semantics with two files of the same
//! checksummed records: a `journal.wal` of operation records staged
//! *before* each operation is applied in memory and handed to the OS
//! before the commit releases the journal guard, and a `snapshot.jsonl`
//! (the name predates the format) holding a generation stamp, then per
//! collection its index definitions and its documents, each a record of
//! its own. Recovery loads the snapshot, then replays the WAL
//! generations the snapshot does not contain.
//!
//! ## Frame format
//!
//! Every record of either file is a frame:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! ```
//!
//! where `crc32` is the IEEE CRC-32 of the payload. The checksum turns
//! every torn or flipped byte into a *detected* bad frame, so recovery
//! can truncate the replay point at the first bad frame instead of
//! guessing where a record was supposed to end (the PR 7 JSON-lines
//! journal could only classify the final record). A record is encoded
//! once, from a borrow of what the commit decided ([`JournalRef`]),
//! straight into the frame buffer ([`frame_record`]): no document is
//! cloned or rendered to text to be journaled.
//!
//! Two types hold both ends of that rule. A [`Framed`] buffer holds
//! whole frames and nothing else — only [`frame_record`] adds to one —
//! and it is all the WAL, the snapshot and a replica set's oplog write.
//! A [`Verified`] payload passed its checksum — only [`decode_frame`]
//! makes one — and it is all [`Record::decode`] reads. So a writer that
//! skips the framing, or a reader that skips the checksum, does not
//! compile.
//!
//! ## Payload format
//!
//! A payload is a tag byte, then the record's fields ([`crate::codec`]
//! has `text` and `value`):
//!
//! ```text
//! 0x01 u64 LE                       generation g (a WAL file's first frame,
//!                                   a snapshot's first record)
//! 0x02 text:c value:doc             insert
//! 0x03 text:c flag:many value:filter value:update
//! 0x04 text:c flag:many value:filter
//! 0x05 text:c                       clear
//! 0x06 text:c flag:unique text:path create index
//! 0x07 text:c text:path             drop index
//! 0x08 text:c                       drop collection
//! ```
//!
//! Every record names its collection, so every frame decodes without
//! any other — the torn/corrupt rule below needs nothing but the frame,
//! and a frame can be shipped alone. A snapshot is a generation record,
//! then per collection a create-index record per index (so its unique
//! constraints exist before its documents are built) and an insert
//! record per document: one decoder (`Record::decode`) reads both files,
//! and a replica set's oplog too ([`crate::shard`]).
//!
//! A directory an older build wrote — JSON records before PR 25, files
//! without a generation record before PR 16 — fails these frame, tag
//! and first-record checks, so it is refused with an error naming the
//! file and the offset, and left as it was.
//!
//! ## Generations and checkpoints
//!
//! The WAL is a sequence of *generations*. The active one is always
//! `journal.wal`; its first frame names its generation. A checkpoint is
//! four steps ([`Persister::capture`],
//! [`Persister::write`], [`Persister::publish`], [`Persister::retire`]):
//!
//! 1. **capture**, under the journal guard: per collection, its index
//!    definitions and its scan segment — the `Arc<Document>` handles of
//!    one write generation, a reference-count bump per document and no
//!    serialization — then *seal* the active WAL generation (fsync it,
//!    rename it `journal.<g>.sealed`) so later commits start generation
//!    `g + 1`;
//! 2. **write**, with the guard released: encode the captured handles
//!    into `snapshot.jsonl.tmp`, stamped `g`, while commits continue
//!    (the handles are immutable: updates copy on write);
//! 3. **publish**: fsync the file, rename it over `snapshot.jsonl`,
//!    fsync the directory;
//! 4. **retire**: delete the sealed generations the snapshot covers.
//!
//! A threshold-triggered checkpoint runs steps 2–4 on a short-lived
//! thread, at most one in flight, joined when the persister is dropped;
//! an explicit one runs them on the caller. Recovery replays exactly the
//! generations above the snapshot's stamp — sealed ones oldest first,
//! then the active one — and discards the rest, so a crash between any
//! two steps recovers the acknowledged state (DESIGN §15 has the table).
//!
//! ## Recovery policy
//!
//! A WAL generation's frames are decoded in order ([`decode_frame`], the
//! checksum gate) and each decoded op is applied ([`JournalOp::apply`]).
//! The snapshot is built, not replayed ([`load_snapshot`]): its frames
//! are verified and decoded in the same order, and each collection's
//! run of documents goes to one bulk build (`(key, DocId)` entries
//! borrowed from the documents and sorted, one apply) when it ends —
//! the build a live `insert_many` into an empty collection takes too,
//! logged as one `Insert` per document, so the WAL holds nothing else
//! for it. Verify strictly before apply, in the snapshot and in sealed
//! and active generations alike: a record decodes only from a
//! [`Verified`] payload.
//! A snapshot's documents take no profiler sample: recovery no longer
//! fills the profiler's ring with one `insert` per document, which
//! nobody issued.
//!
//! * A bad frame in the **snapshot** — torn, corrupt or unparseable — is
//!   a hard error naming its offset: the snapshot was fsynced before it
//!   was published, so a bad frame is damage, and loading around it
//!   would open a store that differs from every acknowledged state. So
//!   is a snapshot record that fails to apply (of a run of documents,
//!   the one where inserting them one by one would have stopped), and a
//!   second run of documents for one collection. Of several faults the
//!   earliest is named.
//!
//! In the WAL:
//!
//! * A frame that runs past end-of-file is a **torn tail**: the crash
//!   interrupted that append, its operation was never acknowledged, and
//!   recovery skips it ([`RecoveryReport::torn_tail`]).
//! * A complete frame whose checksum mismatches is **corruption**: the
//!   replay point truncates there ([`RecoveryReport::corruption`]) —
//!   with length-prefixed framing nothing after a bad frame can be
//!   trusted, so the tail is dropped *by design*, not silently. That
//!   includes every later generation: an op must never replay against a
//!   pre-state other than the one it was acknowledged on.
//! * In both cases the file is physically truncated to the last good
//!   frame ([`RecoveryReport::replay_lsn`]) so subsequent appends start
//!   from a clean boundary. (The PR 7 journal re-appended after a torn
//!   tail, which turned the next recovery into a hard mid-file error.)
//! * A checksum-valid frame that fails to parse is a hard error: the
//!   CRC proves we wrote those bytes, so the store itself is buggy. So
//!   is a generation record anywhere but first in its file, or a first
//!   frame that is not one.
//!
//! ## Group commit
//!
//! A commit's frames go to the OS in one write under the WAL lock;
//! durability comes from a separate [`GroupCommit`] barrier. A
//! committer calls [`GroupCommit::sync_to`] with the LSN (byte offset)
//! its append reached: whoever acquires the sync lock first fsyncs once
//! for *every* committer queued behind it, and the queued committers
//! observe their LSN already durable and return without touching the
//! disk. Batching emerges from contention — no timers, no threads. The
//! barrier hands back an [`Acked`], which a journaled commit must hold
//! to return `Ok` (`Barrier`).
//!
//! Replay determinism: [`JournalOp::apply`] is best-effort (a failing
//! op is skipped). The live write-ahead path journals an operation
//! before applying it, so an op that failed live (duplicate key, unique
//! violation) is in the WAL; replay reaches the same pre-op state, fails
//! the same deterministic way, and converges on the live outcome.

use crate::codec;
use crate::collection::{Bulk, Refused};
use crate::column::Segment;
use crate::database::Database;
use crate::error::{Result, StoreError};
use crate::journal::JournalSink;
use mp_sync::{LockRank, OrderedMutex};
use serde_json::Value;
use std::borrow::Borrow;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One journaled operation. `JournalOp` (the defaults) owns its names
/// and documents — what replay decodes; [`JournalRef`] borrows them
/// from the commit that decided the op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JournalOp<S = String, V = Value> {
    /// Insert `doc` into `collection`.
    Insert { collection: S, doc: V },
    /// Apply `update` to documents matching `filter`.
    Update {
        collection: S,
        filter: V,
        update: V,
        many: bool,
    },
    /// Delete documents matching `filter`.
    Delete {
        collection: S,
        filter: V,
        many: bool,
    },
    /// Remove every document (index definitions survive).
    Clear { collection: S },
    /// Create a secondary index on `path`.
    CreateIndex {
        collection: S,
        path: S,
        unique: bool,
    },
    /// Drop the secondary index on `path`.
    DropIndex { collection: S, path: S },
    /// Drop the collection entirely.
    DropCollection { collection: S },
}

/// A journaled operation borrowed from whoever decided it: what
/// [`crate::journal::Shared::commit`] hands the journal, so the WAL
/// encodes a document straight from the one the store is about to hold.
pub type JournalRef<'a> = JournalOp<&'a str, &'a Value>;

/// The first byte of a payload: which record it is.
const GENERATION: u8 = 0x01;
const INSERT: u8 = 0x02;
const UPDATE: u8 = 0x03;
const DELETE: u8 = 0x04;
const CLEAR: u8 = 0x05;
const CREATE_INDEX: u8 = 0x06;
const DROP_INDEX: u8 = 0x07;
const DROP_COLLECTION: u8 = 0x08;

/// What a frame carries. [`frame_record`] reserves the frame header,
/// has the payload write itself after it, then fills in the length and
/// checksum — so a record is encoded straight into the buffer that goes
/// to the file, and every byte either file holds passes the one framing
/// gate.
pub trait Payload {
    /// Append the payload's bytes to `out`.
    fn write_payload(&self, out: &mut Vec<u8>);
}

/// Bytes already encoded.
impl Payload for [u8] {
    fn write_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

/// An op's record, encoded from the borrow: its tag, its collection,
/// then its fields (the module docs have the layout).
impl<S: AsRef<str>, V: Borrow<Value>> Payload for JournalOp<S, V> {
    fn write_payload(&self, out: &mut Vec<u8>) {
        let open = |out: &mut Vec<u8>, tag: u8, collection: &S| {
            out.push(tag);
            codec::encode_text(collection.as_ref().as_bytes(), out);
        };
        match self {
            JournalOp::Insert { collection, doc } => {
                open(out, INSERT, collection);
                codec::encode(doc.borrow(), out);
            }
            JournalOp::Update {
                collection,
                filter,
                update,
                many,
            } => {
                open(out, UPDATE, collection);
                out.push(u8::from(*many));
                codec::encode(filter.borrow(), out);
                codec::encode(update.borrow(), out);
            }
            JournalOp::Delete {
                collection,
                filter,
                many,
            } => {
                open(out, DELETE, collection);
                out.push(u8::from(*many));
                codec::encode(filter.borrow(), out);
            }
            JournalOp::Clear { collection } => open(out, CLEAR, collection),
            JournalOp::CreateIndex {
                collection,
                path,
                unique,
            } => {
                open(out, CREATE_INDEX, collection);
                out.push(u8::from(*unique));
                codec::encode_text(path.as_ref().as_bytes(), out);
            }
            JournalOp::DropIndex { collection, path } => {
                open(out, DROP_INDEX, collection);
                codec::encode_text(path.as_ref().as_bytes(), out);
            }
            JournalOp::DropCollection { collection } => open(out, DROP_COLLECTION, collection),
        }
    }
}

/// The record that opens a WAL generation and a snapshot: which
/// generation it is.
struct Stamp(u64);

impl Payload for Stamp {
    fn write_payload(&self, out: &mut Vec<u8>) {
        out.push(GENERATION);
        out.extend_from_slice(&self.0.to_le_bytes());
    }
}

/// What one frame holds. An op's names borrow the frame's bytes: only
/// its documents are decoded into owned values.
#[derive(Debug, PartialEq)]
pub enum Record<'a> {
    /// Which generation the file holds (a snapshot: contains).
    Generation(u64),
    /// A journaled operation.
    Op(JournalOp<&'a str>),
}

impl Record<'_> {
    /// Decode a frame's payload — one that passed its checksum. Raw
    /// bytes are refused at compile time:
    ///
    /// ```compile_fail,E0308
    /// use mp_docstore::persist::Record;
    /// let record = Record::decode(b"\x05\x01c".as_slice());
    /// ```
    pub fn decode(payload: Verified<'_>) -> Result<Record<'_>> {
        let mut r = codec::Reader::new(payload.0);
        let tag = r.byte()?;
        if tag == GENERATION {
            let gen = r.fixed_u64()?;
            r.finish()?;
            return Ok(Record::Generation(gen));
        }
        if !(INSERT..=DROP_COLLECTION).contains(&tag) {
            return Err(StoreError::Persistence(format!(
                "unknown record tag {tag:#04x}"
            )));
        }
        let collection = r.text()?;
        let op = match tag {
            INSERT => JournalOp::Insert {
                collection,
                doc: r.value()?,
            },
            UPDATE => {
                let many = r.flag()?;
                let filter = r.value()?;
                JournalOp::Update {
                    collection,
                    filter,
                    update: r.value()?,
                    many,
                }
            }
            DELETE => {
                let many = r.flag()?;
                JournalOp::Delete {
                    collection,
                    filter: r.value()?,
                    many,
                }
            }
            CLEAR => JournalOp::Clear { collection },
            CREATE_INDEX => {
                let unique = r.flag()?;
                JournalOp::CreateIndex {
                    collection,
                    path: r.text()?,
                    unique,
                }
            }
            DROP_INDEX => JournalOp::DropIndex {
                collection,
                path: r.text()?,
            },
            _ => JournalOp::DropCollection { collection },
        };
        r.finish()?;
        Ok(Record::Op(op))
    }
}

impl From<codec::CodecError> for StoreError {
    fn from(e: codec::CodecError) -> Self {
        StoreError::Persistence(format!("record payload: {e}"))
    }
}

impl<S: AsRef<str>> JournalOp<S> {
    /// Apply this operation to a live database, best-effort. WAL replay
    /// and the replica-set secondary apply path share this, so "what an
    /// op means" is defined exactly once. It consumes the op: replay
    /// inserts the document it decoded, not a copy of it. Its names may
    /// be owned or borrowed from the frame it was decoded from.
    ///
    /// A failing op is *skipped*, never an error: the write-ahead seam
    /// journals before it applies, so the WAL legitimately contains
    /// operations that failed live (a duplicate `_id`, a unique-index
    /// violation). Replay reaches the same pre-op state and the op fails
    /// the same deterministic way — propagating it would turn an
    /// ordinary rejected write into an unrecoverable store.
    pub fn apply(self, db: &Database) -> Result<()> {
        let _ = self.try_apply(db);
        Ok(())
    }

    /// Apply this operation and return its own outcome: what a snapshot
    /// record gets. A snapshot is captured from one consistent state,
    /// so a record of it that fails to apply is the store's bug.
    pub(crate) fn try_apply(self, db: &Database) -> Result<()> {
        match self {
            JournalOp::Insert { collection, doc } => {
                db.collection(collection.as_ref()).insert_one(doc).map(drop)
            }
            JournalOp::Update {
                collection,
                filter,
                update,
                many,
            } => db
                .collection(collection.as_ref())
                .update(&filter, &update, many)
                .map(drop),
            JournalOp::Delete {
                collection,
                filter,
                many,
            } => db
                .collection(collection.as_ref())
                .delete(&filter, many)
                .map(drop),
            JournalOp::Clear { collection } => db.collection(collection.as_ref()).clear(),
            JournalOp::CreateIndex {
                collection,
                path,
                unique,
            } => db
                .collection(collection.as_ref())
                .create_index(path.as_ref(), unique),
            JournalOp::DropIndex { collection, path } => {
                db.collection(collection.as_ref()).drop_index(path.as_ref())
            }
            JournalOp::DropCollection { collection } => {
                db.drop_collection(collection.as_ref()).map(drop)
            }
        }
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE) and the frame codec.
// ---------------------------------------------------------------------

/// Slice-by-8 tables for the IEEE CRC-32 (reflected polynomial
/// 0xEDB88320 — the zlib/gzip/`cksum -o 3` checksum), built at compile
/// time: `[0]` is the classic byte-at-a-time table and `[k][b]` the CRC
/// of byte `b` followed by `k` zero bytes, so eight lookups fold eight
/// input bytes at once.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 of `bytes`, eight bytes a step (slice-by-8): the same
/// values as the byte-at-a-time loop, which still folds the tail.
// mp-flow: allow(R002) — every table index is a byte of the running value (masked to 0..=255 or its top byte) and every table has 256 entries; flagged only now that every `Collection` mutator reaches the WAL
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let b = |x: u64, k: u32| ((x >> (8 * k)) & 0xFF) as usize;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().unwrap_or_default()) ^ u64::from(c);
        c = t7[b(x, 0)]
            ^ t6[b(x, 1)]
            ^ t5[b(x, 2)]
            ^ t4[b(x, 3)]
            ^ t3[b(x, 4)]
            ^ t2[b(x, 5)]
            ^ t1[b(x, 6)]
            ^ t0[b(x, 7)];
    }
    for &byte in words.remainder() {
        c = t0[((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Whole frames, and nothing else: what the WAL, the snapshot and the
/// oplog write. It starts empty, and only [`frame_record`] adds to it,
/// so its bytes cannot be built any other way:
///
/// ```compile_fail,E0603
/// use mp_docstore::persist::Framed;
/// let unframed = Framed(b"raw".to_vec());
/// ```
#[derive(Debug, Default)]
pub struct Framed(Vec<u8>);

impl Framed {
    /// Empty the buffer once its frames are written out.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    /// Keep the first `len` bytes; `len` must end a frame.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.0.truncate(len);
    }
}

impl Deref for Framed {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Append one frame to `buf`: `[len u32 LE][crc32 u32 LE][payload]`,
/// the payload written in place after the header it reserves.
///
/// The one way bytes get into a [`Framed`] buffer: every byte the
/// journal appends passes through here, and every byte the snapshot
/// holds does too.
pub fn frame_record<P: Payload + ?Sized>(buf: &mut Framed, payload: &P) {
    let buf = &mut buf.0;
    let start = buf.len();
    buf.extend_from_slice(&[0; 8]);
    payload.write_payload(buf);
    let body = buf.get(start + 8..).unwrap_or_default();
    let header = u64::from(body.len() as u32) | u64::from(crc32(body)) << 32;
    if let Some(slot) = buf.get_mut(start..start + 8) {
        slot.copy_from_slice(&header.to_le_bytes());
    }
}

/// A frame's payload that passed its checksum: what [`Record::decode`]
/// reads. Only [`decode_frame`] makes one:
///
/// ```compile_fail,E0603
/// use mp_docstore::persist::Verified;
/// let forged = Verified(b"\x05\x01c".as_slice());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Verified<'a>(&'a [u8]);

/// Outcome of decoding the frame at one offset.
pub enum FrameDecode<'a> {
    /// A checksum-valid frame; `next` is the offset just past it.
    Frame { payload: Verified<'a>, next: usize },
    /// The frame runs past end-of-file: a torn tail.
    Torn(String),
    /// A complete frame whose checksum mismatches: corruption.
    Corrupt(String),
}

/// Decode (and checksum-verify) the frame starting at `off`: the one
/// source of a [`Verified`] payload, so every reader — WAL recovery,
/// the snapshot load, replication — verifies before it applies.
pub fn decode_frame(bytes: &[u8], off: usize) -> FrameDecode<'_> {
    let rest = bytes.get(off..).unwrap_or_default();
    let Some((header, body)) = rest.split_first_chunk::<8>() else {
        return FrameDecode::Torn(format!(
            "frame header torn at byte {off} ({} of 8 header bytes present)",
            rest.len()
        ));
    };
    let header = u64::from_le_bytes(*header);
    let (len, want) = (header as u32 as usize, (header >> 32) as u32);
    let Some(payload) = body.get(..len) else {
        return FrameDecode::Torn(format!(
            "frame at byte {off} claims {len} payload bytes but only {} remain",
            body.len()
        ));
    };
    let got = crc32(payload);
    if got != want {
        return FrameDecode::Corrupt(format!(
            "frame at byte {off}: crc32 {got:08x} != recorded {want:08x}"
        ));
    }
    FrameDecode::Frame {
        payload: Verified(payload),
        next: off + 8 + len,
    }
}

// ---------------------------------------------------------------------
// Group commit.
// ---------------------------------------------------------------------

/// State behind the sync lock: the active generation's file handle to
/// fsync (absent until the first append after open or after a seal).
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
/// re-check sees `durable` already past their LSN). Sealing a
/// generation resets the counters; a committer whose barrier straddles
/// the seal is already covered, because the seal fsynced the generation
/// its frames are in before resetting.
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

    /// Start a new generation (the previous one was sealed, fsynced).
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
    pub fn sync_to(&self, lsn: u64) -> Result<Acked> {
        self.commits.fetch_add(1, Ordering::Relaxed);
        if self.durable.load(Ordering::SeqCst) >= lsn {
            return Ok(Acked(())); // someone else's fsync already covered us
        }
        let st = self.inner.lock();
        if self.durable.load(Ordering::SeqCst) >= lsn {
            return Ok(Acked(())); // the leader ahead of us covered our LSN
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
        // No file: the generation was sealed under us, and the seal
        // fsynced it — this LSN included — before it reset the counters.
        Ok(Acked(()))
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

/// A barrier passed: what a journaled commit must hold to return `Ok`
/// (`Journal::write_ahead`). Only the barrier makes one —
/// [`GroupCommit::sync_to`], or `Barrier::pass` for a journal that
/// acknowledges on append:
///
/// ```compile_fail,E0603
/// use mp_docstore::persist::Acked;
/// let unearned = Acked(());
/// ```
#[must_use = "a commit returns `Ok` only with the barrier's `Acked`"]
#[derive(Debug)]
pub struct Acked(());

/// What a journal's commits wait for before they are acknowledged.
pub(crate) enum Barrier {
    /// Nothing past the append: `DurableOptions::fsync == false` (the
    /// bytes reach the OS, not necessarily the disk), and a replica
    /// set's in-memory oplog.
    Append,
    /// The group-commit fsync covering the commit's frames.
    Fsync(Arc<GroupCommit>),
}

impl Barrier {
    /// Pass the barrier for a commit whose frames reached `lsn`; a
    /// commit that appended nothing (`None`) has nothing to wait for.
    pub(crate) fn pass(&self, lsn: Option<u64>) -> Result<Acked> {
        match (self, lsn) {
            (Barrier::Fsync(sync), Some(lsn)) => sync.sync_to(lsn),
            _ => Ok(Acked(())),
        }
    }
}

// ---------------------------------------------------------------------
// Recovery report, checkpoints and the persister.
// ---------------------------------------------------------------------

/// What recovery found and did, for callers that need more than the
/// database itself (operational logging, the crash-matrix tests).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Documents loaded from `snapshot.jsonl`.
    pub snapshot_docs: usize,
    /// The WAL generation the snapshot is stamped with — it contains
    /// every effect of that generation and the ones before it, and its
    /// first record says which. `None` without a snapshot, or with an
    /// empty one.
    pub snapshot_gen: Option<u64>,
    /// Sealed generations replayed: a checkpoint sealed them, and the
    /// crash came before its snapshot was published.
    pub sealed_replayed: usize,
    /// Generation files discarded unread because the snapshot already
    /// contains them: the crash came after a checkpoint's snapshot was
    /// published and before the generation was retired.
    pub generations_discarded: usize,
    /// WAL operations replayed.
    pub replayed_ops: usize,
    /// Description of a torn trailing frame that was skipped, when the
    /// crash interrupted the final append.
    pub torn_tail: Option<String>,
    /// Description of a checksum-failed frame that truncated the replay
    /// point mid-file.
    pub corruption: Option<String>,
    /// Byte offset of the end of the last good frame of the active
    /// generation; the WAL is physically truncated here so new appends
    /// start clean.
    pub replay_lsn: u64,
}

/// What a persister shares with the checkpoint it has in flight.
#[derive(Default)]
struct Flight {
    /// A captured checkpoint has neither finished nor been abandoned.
    busy: AtomicBool,
    /// The highest generation a published snapshot covers.
    published: AtomicU64,
}

/// A captured checkpoint: what [`Persister::capture`] took under the
/// journal guard and the later steps need — no reference to the
/// persister or the database, so they run with the guard released, on
/// any thread. Dropping it (finished or abandoned) lets the next
/// checkpoint start.
pub struct Checkpoint {
    dir: PathBuf,
    /// The generation sealed by the capture: the snapshot will contain
    /// every effect of it and of the generations before it.
    covers: u64,
    collections: Vec<Captured>,
    flight: Arc<Flight>,
}

/// One collection as a checkpoint captured it.
struct Captured {
    name: String,
    /// `(path, unique)` of its indexes, in creation order.
    indexes: Vec<(String, bool)>,
    /// Its document handles: the scan segment of its write generation.
    docs: Arc<Segment>,
}

impl Drop for Checkpoint {
    fn drop(&mut self) {
        self.flight.busy.store(false, Ordering::SeqCst);
    }
}

/// What [`Persister::begin_checkpoint`] found.
pub(crate) enum Begin {
    /// A threshold-triggered checkpoint is in flight: join it (with the
    /// guard released) and look again.
    InFlight(JoinHandle<Result<()>>),
    /// The published snapshot already contains the whole log.
    Covered,
    /// Captured and sealed: write, publish, retire.
    Captured(Checkpoint),
}

/// Frames staged past this many bytes go to the OS without waiting for
/// the end of the commit, so a bulk load holds a bounded buffer.
const STAGE_LIMIT: usize = 256 << 10;

/// Snapshot bytes buffered per write.
const SNAPSHOT_CHUNK: usize = 256 << 10;

fn io_err(what: &str, e: std::io::Error) -> StoreError {
    StoreError::Persistence(format!("{what}: {e}"))
}

/// Persist the directory's entries (a create, a rename).
fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("directory fsync", e))
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.jsonl")
}

fn snapshot_tmp_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.jsonl.tmp")
}

fn sealed_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("journal.{gen}.sealed"))
}

/// The sealed generations in `dir`, oldest first.
fn sealed_generations(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut sealed = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| io_err("wal directory", e))? {
        let path = entry.map_err(|e| io_err("wal directory", e))?.path();
        let gen = path.file_name().and_then(|n| n.to_str()).and_then(|n| {
            n.strip_prefix("journal.")?
                .strip_suffix(".sealed")?
                .parse()
                .ok()
        });
        if let Some(gen) = gen {
            sealed.push((gen, path));
        }
    }
    sealed.sort();
    Ok(sealed)
}

/// Snapshot/WAL manager rooted at a directory.
pub struct Persister {
    dir: PathBuf,
    /// The active generation's file, opened by the first write to it.
    wal: Option<File>,
    /// Bytes in the active generation (replayed + handed to the OS).
    wal_len: u64,
    /// The active generation's number; `journal.wal` starts with it.
    gen: u64,
    /// Frames of the commit in progress that the OS does not have yet.
    staged: Framed,
    sync: Arc<GroupCommit>,
    /// Checkpoint once the WAL outgrows this many bytes
    /// ([`crate::durable::DurableOptions::compact_after_bytes`]).
    pub(crate) compact_after_bytes: Option<u64>,
    flight: Arc<Flight>,
    /// The thread finishing a threshold-triggered checkpoint.
    worker: Option<JoinHandle<Result<()>>>,
}

/// The file WAL as a database's journal: one checksummed frame per op.
impl JournalSink for Persister {
    fn append_op(&mut self, op: JournalRef<'_>) -> Result<()> {
        self.stage(&op)
    }

    fn flush_appended(&mut self) -> Result<(u64, bool)> {
        let lsn = self.write_staged()?;
        Ok((lsn, self.checkpoint_due()))
    }

    /// Capture and seal here, under the guard; write, publish and
    /// retire on a thread of their own. One checkpoint at a time: while
    /// one is in flight the log just keeps growing, and the next commit
    /// over the threshold asks again.
    fn maybe_checkpoint(&mut self, db: &Database) -> Result<()> {
        if !self.checkpoint_due() {
            return Ok(());
        }
        self.join_worker()?;
        let checkpoint = self.capture(db)?;
        let worker = std::thread::Builder::new()
            .name("mp-checkpoint".into())
            .spawn(move || Persister::complete(checkpoint))
            .map_err(|e| io_err("checkpoint thread", e))?;
        self.worker = Some(worker);
        Ok(())
    }
}

impl Drop for Persister {
    /// The last handle of the store is closing: let a checkpoint in
    /// flight finish, so the directory is left with one snapshot and one
    /// WAL. Its error, if any, has nobody left to go to; the sealed
    /// generation it leaves behind replays on the next open.
    fn drop(&mut self) {
        let _ = self.join_worker();
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
            gen: 1,
            staged: Framed::default(),
            sync: Arc::new(GroupCommit::new()),
            compact_after_bytes: None,
            flight: Arc::default(),
            worker: None,
        })
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("journal.wal")
    }

    /// The shared durability barrier for this WAL.
    pub fn sync_handle(&self) -> Arc<GroupCommit> {
        Arc::clone(&self.sync)
    }

    /// Bytes in the active WAL generation (compaction trigger input).
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// The active generation has outgrown the threshold and no
    /// checkpoint is in flight to fold it.
    fn checkpoint_due(&self) -> bool {
        self.compact_after_bytes
            .is_some_and(|limit| self.wal_len > limit)
            && !self.flight.busy.load(Ordering::SeqCst)
    }

    /// Wait for the checkpoint thread, if there is one, and take its
    /// result. Under the journal guard this is only called once the
    /// thread has dropped its [`Checkpoint`], its last act.
    fn join_worker(&mut self) -> Result<()> {
        match self.worker.take() {
            Some(worker) => join_checkpoint(worker),
            None => Ok(()),
        }
    }

    // ---- the commit side: stage, then one write ----

    /// Encode `op` once, from the borrow, straight into its staged
    /// frame.
    fn stage<S: AsRef<str>, V: Borrow<Value>>(&mut self, op: &JournalOp<S, V>) -> Result<()> {
        frame_record(&mut self.staged, op);
        if self.staged.len() >= STAGE_LIMIT {
            self.write_staged()?;
        }
        Ok(())
    }

    /// Hand the staged frames to the OS in one write — after the frame
    /// that names the generation, if they are its first. Returns the
    /// LSN (byte offset past them) to give [`GroupCommit::sync_to`].
    fn write_staged(&mut self) -> Result<u64> {
        if self.staged.is_empty() {
            return Ok(self.wal_len);
        }
        if self.wal.is_none() {
            self.wal = Some(self.open_wal()?);
        }
        let Some(wal) = self.wal.as_mut() else {
            return Err(StoreError::Persistence("wal writer unavailable".into()));
        };
        if self.wal_len == 0 {
            let mut header = Framed::default();
            frame_record(&mut header, &Stamp(self.gen));
            wal.write_all(&header).map_err(|e| io_err("wal write", e))?;
            self.wal_len = header.len() as u64;
        }
        wal.write_all(&self.staged)
            .map_err(|e| io_err("wal write", e))?;
        self.wal_len += self.staged.len() as u64;
        self.staged.clear();
        self.sync.note_appended(self.wal_len);
        Ok(self.wal_len)
    }

    /// Open the active generation for appending and give the barrier a
    /// handle to it. A file this creates gets its name made durable
    /// here — together with the rename that sealed its predecessor —
    /// before any frame in it can be acknowledged.
    fn open_wal(&mut self) -> Result<File> {
        let path = self.wal_path();
        let created = !path.exists();
        let f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("wal open", e))?;
        if created {
            sync_dir(&self.dir)?;
        }
        let dup = f.try_clone().map_err(|e| io_err("wal handle clone", e))?;
        self.sync.register(dup, self.wal_len);
        Ok(f)
    }

    /// Append a batch of operations as checksummed frames and hand them
    /// to the OS. Returns the LSN (byte offset past the batch) to give
    /// [`GroupCommit::sync_to`]. (The commit seam,
    /// [`crate::journal`], stages each op *before* applying it in
    /// memory; this is the same two steps for a caller that journals by
    /// hand.)
    pub fn append_ops(&mut self, ops: &[JournalOp]) -> Result<u64> {
        for op in ops {
            self.stage(op)?;
        }
        self.write_staged()
    }

    // ---- checkpoints: capture, write, publish, retire ----

    /// Write a full snapshot of `db` and fold the WAL into it: the four
    /// checkpoint steps, one after the other, on the caller.
    pub fn snapshot(&mut self, db: &Database) -> Result<()> {
        self.join_worker()?;
        let checkpoint = self.capture(db)?;
        Persister::complete(checkpoint)
    }

    /// What an explicit checkpoint should do, decided under the journal
    /// guard (which the caller holds for this call only).
    pub(crate) fn begin_checkpoint(&mut self, db: &Database) -> Result<Begin> {
        if let Some(worker) = self.worker.take() {
            return Ok(Begin::InFlight(worker));
        }
        // Every generation before the active one is in the published
        // snapshot, and the active one is empty.
        let published = self.flight.published.load(Ordering::SeqCst);
        if self.wal_len == 0 && published + 1 >= self.gen {
            return Ok(Begin::Covered);
        }
        self.capture(db).map(Begin::Captured)
    }

    /// Step 1, under the journal guard (`&mut self`): take each
    /// collection's index definitions and document handles — the scan
    /// segment of its write generation, one reference-count bump per
    /// document if no scan has built it yet, one per collection if one
    /// has — then seal the active WAL generation. Nothing is
    /// serialized, and no commit runs meanwhile, so the handles are the
    /// store exactly as of the seal.
    pub fn capture(&mut self, db: &Database) -> Result<Checkpoint> {
        if self.flight.busy.swap(true, Ordering::SeqCst) {
            return Err(StoreError::Persistence(
                "a checkpoint is already in flight".into(),
            ));
        }
        let mut checkpoint = Checkpoint {
            dir: self.dir.clone(),
            covers: self.gen,
            collections: Vec::new(),
            flight: Arc::clone(&self.flight),
        };
        for name in db.collection_names() {
            let (indexes, docs) = db.collection(&name).capture();
            checkpoint.collections.push(Captured {
                name,
                indexes,
                docs,
            });
        }
        self.seal()?;
        Ok(checkpoint)
    }

    /// Close the active generation: everything in it is fsynced and the
    /// file renamed `journal.<gen>.sealed`, so frames appended from now
    /// on belong to the next generation — none of them is acknowledged
    /// before this fsync has returned.
    fn seal(&mut self) -> Result<()> {
        self.write_staged()?;
        if self.wal_len > 0 {
            let wal = match self.wal.take() {
                Some(wal) => wal,
                None => File::open(self.wal_path()).map_err(|e| io_err("wal open", e))?,
            };
            wal.sync_data().map_err(|e| io_err("wal seal fsync", e))?;
            std::fs::rename(self.wal_path(), sealed_path(&self.dir, self.gen))
                .map_err(|e| io_err("wal seal", e))?;
        }
        self.gen += 1;
        self.wal_len = 0;
        self.sync.reset();
        Ok(())
    }

    /// Steps 2–4 in order; what a checkpoint thread runs.
    pub(crate) fn complete(checkpoint: Checkpoint) -> Result<()> {
        Persister::write(&checkpoint)?;
        Persister::publish(&checkpoint)?;
        Persister::retire(checkpoint)
    }

    /// Step 2, no guard held: encode the captured handles into
    /// `snapshot.jsonl.tmp`, one frame per record — the generation
    /// stamp, then per collection its index definitions (so a reopen
    /// builds the documents under their unique constraints) and its
    /// documents, in store order: one run per collection.
    pub fn write(checkpoint: &Checkpoint) -> Result<()> {
        let write_err = |e| io_err("snapshot write", e);
        let mut file =
            File::create(snapshot_tmp_path(&checkpoint.dir)).map_err(|e| io_err("snapshot", e))?;
        let mut out = Framed(Vec::with_capacity(SNAPSHOT_CHUNK));
        frame_record(&mut out, &Stamp(checkpoint.covers));
        for captured in &checkpoint.collections {
            let collection = captured.name.as_str();
            for (path, unique) in &captured.indexes {
                let op: JournalRef<'_> = JournalOp::CreateIndex {
                    collection,
                    path: path.as_str(),
                    unique: *unique,
                };
                frame_record(&mut out, &op);
            }
            for doc in captured.docs.docs() {
                frame_record(
                    &mut out,
                    &JournalOp::Insert {
                        collection,
                        doc: &**doc,
                    },
                );
                if out.len() >= SNAPSHOT_CHUNK {
                    file.write_all(&out).map_err(write_err)?;
                    out.clear();
                }
            }
        }
        file.write_all(&out).map_err(write_err)
    }

    /// Step 3: make the written snapshot *the* snapshot. The rename
    /// only publishes durable data: the file is fsynced before the name
    /// swap, or a crash could leave a named snapshot full of unwritten
    /// pages — and the sealed generation it replaces about to go.
    pub fn publish(checkpoint: &Checkpoint) -> Result<()> {
        let dir = &checkpoint.dir;
        let tmp = snapshot_tmp_path(dir);
        File::open(&tmp)
            .and_then(|f| f.sync_all())
            .map_err(|e| io_err("snapshot fsync", e))?;
        std::fs::rename(&tmp, snapshot_path(dir)).map_err(|e| io_err("snapshot rename", e))?;
        sync_dir(dir)?;
        checkpoint
            .flight
            .published
            .fetch_max(checkpoint.covers, Ordering::SeqCst);
        Ok(())
    }

    /// Step 4: delete the sealed generations the published snapshot
    /// contains (its own, and any an earlier failed checkpoint left).
    pub fn retire(checkpoint: Checkpoint) -> Result<()> {
        for (gen, path) in sealed_generations(&checkpoint.dir)? {
            if gen <= checkpoint.covers {
                std::fs::remove_file(path).map_err(|e| io_err("wal retire", e))?;
            }
        }
        Ok(())
    }

    // ---- recovery ----

    /// Rebuild a database from snapshot + WAL replay. See
    /// [`Persister::recover_with_report`] for the bad-frame policy.
    pub fn recover(&mut self) -> Result<Database> {
        self.recover_with_report().map(|(db, _)| db)
    }

    /// Rebuild a database from the snapshot and the WAL generations it
    /// does not contain, reporting what was loaded.
    ///
    /// Sealed generations above the snapshot's stamp replay oldest
    /// first, then the active `journal.wal`; a generation at or below
    /// the stamp is deleted unread (the checkpoint that covers it was
    /// published but never got to retire it). In every file each frame
    /// is checksum-verified ([`decode_frame`]) before its op is
    /// applied. A frame running past end-of-file is a torn tail; a
    /// complete frame with a bad checksum is corruption; either one
    /// truncates the replay point (and the file) at the last good frame
    /// and drops every later generation. A checksum-valid frame that
    /// fails to parse is a hard error — the CRC proves the store wrote
    /// those bytes itself.
    pub fn recover_with_report(&mut self) -> Result<(Database, RecoveryReport)> {
        let db = Database::new();
        let mut report = RecoveryReport::default();
        report.snapshot_gen = load_snapshot(&snapshot_path(&self.dir), &db, &mut report)?;
        let covered = report.snapshot_gen.unwrap_or(0);
        let mut newest = covered;
        let mut intact = true;
        for (gen, path) in sealed_generations(&self.dir)? {
            if gen <= covered || !intact {
                report.generations_discarded += usize::from(gen <= covered);
                std::fs::remove_file(&path).map_err(|e| io_err("wal discard", e))?;
                continue;
            }
            let replay = replay_generation(&path, covered, &db, &mut report)?;
            report.sealed_replayed += 1;
            intact = replay.intact;
            newest = gen;
        }
        let active = self.wal_path();
        if active.exists() {
            // After a bad frame in a sealed generation the active one is
            // not even read.
            let replay = match intact {
                true => Some(replay_generation(&active, covered, &db, &mut report)?),
                false => None,
            };
            match replay {
                Some(replay) if replay.gen.is_none_or(|gen| gen > covered) => {
                    report.replay_lsn = replay.len;
                    newest = newest.max(replay.gen.unwrap_or(0).saturating_sub(1));
                }
                unread => {
                    report.generations_discarded += usize::from(unread.is_some());
                    std::fs::remove_file(&active).map_err(|e| io_err("wal discard", e))?;
                }
            }
        }
        // A checkpoint that never published: its sealed generation is
        // still here. Removed last, so a refused directory is untouched.
        let _ = std::fs::remove_file(snapshot_tmp_path(&self.dir));
        self.wal_len = report.replay_lsn;
        self.gen = newest + 1;
        self.flight.published.store(covered, Ordering::SeqCst);
        Ok((db, report))
    }
}

/// Wait for a checkpoint thread and take its result.
pub(crate) fn join_checkpoint(worker: JoinHandle<Result<()>>) -> Result<()> {
    worker
        .join()
        .unwrap_or_else(|_| Err(StoreError::Persistence("checkpoint thread panicked".into())))
}

/// Load `snapshot.jsonl` into `db`; returns its generation stamp.
///
/// The file is read once. Each record is decoded from a frame of it,
/// checksum-verified before its record is applied, in file order. Each
/// run of consecutive documents of one collection is collected, then
/// built in one apply when it ends (`Collection::bulk_build`, the build
/// `insert_many` into an empty collection takes); the stamp
/// and the index definitions apply as they come
/// ([`JournalOp::try_apply`]), so a collection's unique indexes exist
/// before its run is built and checked against them.
///
/// Anything wrong — a torn or corrupt frame, a record that does not
/// decode or does not apply, a first record that is not the stamp or a
/// second stamp, a second run of documents for one collection — is an
/// error naming the offset; a snapshot is never loaded around a bad
/// record. Of several faults the earliest is named, as inserting one
/// document at a time would name it: a pending run is built before the
/// loop acts on the frame after it, whether that frame is bad or not,
/// and a refused run names the document one-by-one insertion would
/// have stopped at.
fn load_snapshot(path: &Path, db: &Database, report: &mut RecoveryReport) -> Result<Option<u64>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("snapshot read", e)),
    };
    let bad =
        |what: String| StoreError::Persistence(format!("snapshot {}: {what}", path.display()));
    let mut stamp = None;
    let mut run: Option<Run<'_>> = None;
    let mut off = 0;
    while off < bytes.len() {
        let (payload, next) = match decode_frame(&bytes, off) {
            FrameDecode::Frame { payload, next } => (payload, next),
            FrameDecode::Torn(msg) | FrameDecode::Corrupt(msg) => {
                Run::finish(run, db, report).map_err(bad)?;
                return Err(bad(msg));
            }
        };
        match Record::decode(payload) {
            Ok(Record::Op(JournalOp::Insert { collection, doc })) if off > 0 => match &mut run {
                Some(run) if run.collection == collection => run.push(off, doc),
                _ => {
                    Run::finish(run.take(), db, report).map_err(bad)?;
                    run = Some(Run::new(collection, off, doc));
                }
            },
            decoded => {
                Run::finish(run.take(), db, report).map_err(bad)?;
                match decoded.map_err(|e| bad(format!("record at byte {off}: {e}")))? {
                    Record::Generation(gen) if off == 0 => stamp = Some(gen),
                    Record::Op(op) if off > 0 => op
                        .try_apply(db)
                        .map_err(|e| bad(format!("record at byte {off} failed to apply: {e}")))?,
                    _ => return Err(bad(format!("record at byte {off}: {OUT_OF_PLACE}"))),
                }
            }
        }
        off = next;
    }
    Run::finish(run, db, report).map_err(bad)?;
    Ok(stamp)
}

/// A snapshot's run of consecutive documents of one collection,
/// decoded in file order and waiting to be built.
struct Run<'a> {
    collection: &'a str,
    /// Each document's frame offset, to name the one a refusal stops at.
    offsets: Vec<usize>,
    docs: Vec<Value>,
}

impl<'a> Run<'a> {
    /// A run starting with the document decoded from the frame at `off`.
    fn new(collection: &'a str, off: usize, doc: Value) -> Run<'a> {
        Run {
            collection,
            offsets: vec![off],
            docs: vec![doc],
        }
    }

    fn push(&mut self, off: usize, doc: Value) {
        self.offsets.push(off);
        self.docs.push(doc);
    }

    /// Build a pending run into `db` in one apply; a refusal names the
    /// offset of the record one-by-one insertion would have failed on.
    fn finish(
        run: Option<Self>,
        db: &Database,
        report: &mut RecoveryReport,
    ) -> std::result::Result<(), String> {
        let Some(Run {
            collection,
            offsets,
            docs,
        }) = run
        else {
            return Ok(());
        };
        report.snapshot_docs += docs.len();
        let refused = match db.collection(collection).bulk_build(docs, false) {
            Bulk::Built(built) => built.err(),
            // Recovery is the only writer: only a collection that already
            // holds documents declines.
            Bulk::Declined(_) => Some(Refused {
                at: 0,
                error: StoreError::Persistence(format!(
                    "a second run of documents for collection '{collection}'"
                )),
            }),
        };
        refused.map_or(Ok(()), |refused| {
            let off = offsets.get(refused.at).copied().unwrap_or_default();
            Err(format!(
                "record at byte {off} failed to apply: {}",
                refused.error
            ))
        })
    }
}

/// Why a record is refused for where it sits in its file.
const OUT_OF_PLACE: &str = "a file opens with its generation record and holds no other";

/// What replaying one generation file came to.
struct Replay {
    /// The generation its first frame names; `None` for a file with no
    /// complete frame. At or below the snapshot's stamp, nothing was
    /// applied: the snapshot already contains it.
    gen: Option<u64>,
    /// Bytes up to the end of the last good frame.
    len: u64,
    /// No torn or corrupt frame: later generations may replay.
    intact: bool,
}

/// Replay one generation file into `db` — each frame verified before
/// its op is applied — unless its first frame names a generation the
/// snapshot (`covered`) already contains. A bad frame ends the replay
/// and truncates the file there, so the next append does not bury a
/// torn frame mid-file (where the next recovery would read it as
/// corruption). A frame that verifies but does not decode, or a
/// generation record out of place, is an error and the file is left
/// as it is.
fn replay_generation(
    path: &Path,
    covered: u64,
    db: &Database,
    report: &mut RecoveryReport,
) -> Result<Replay> {
    let bytes = std::fs::read(path).map_err(|e| io_err("wal read", e))?;
    let mut replay = Replay {
        gen: None,
        len: 0,
        intact: true,
    };
    let mut off = 0usize;
    while off < bytes.len() {
        match decode_frame(&bytes, off) {
            FrameDecode::Frame { payload, next } => {
                let bad = |what: String| {
                    let path = path.display();
                    StoreError::Persistence(format!(
                        "wal {path}: frame at byte {off} passed its checksum but {what}"
                    ))
                };
                // The checksum proves the store wrote it: a bug, not a crash.
                match Record::decode(payload).map_err(|e| bad(format!("fails to parse: {e}")))? {
                    Record::Generation(gen) if off == 0 => {
                        replay.gen = Some(gen);
                        if gen <= covered {
                            return Ok(replay);
                        }
                    }
                    Record::Op(op) if off > 0 => {
                        op.apply(db)?;
                        report.replayed_ops += 1;
                    }
                    _ => return Err(bad(format!("is out of place: {OUT_OF_PLACE}"))),
                }
                off = next;
            }
            FrameDecode::Torn(msg) => {
                let msg = format!("skipping torn wal tail: {msg}");
                eprintln!("mp-docstore: warning: {msg}");
                report.torn_tail = Some(msg);
                replay.intact = false;
                break;
            }
            FrameDecode::Corrupt(msg) => {
                let msg = format!("truncating wal replay at first corrupt frame: {msg}");
                eprintln!("mp-docstore: warning: {msg}");
                report.corruption = Some(msg);
                replay.intact = false;
                break;
            }
        }
    }
    replay.len = off as u64;
    if !replay.intact {
        let f = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("wal truncate open", e))?;
        f.set_len(replay.len)
            .map_err(|e| io_err("wal truncate", e))?;
        f.sync_data().map_err(|e| io_err("wal truncate fsync", e))?;
    }
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

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

    /// The byte-at-a-time CRC-32 the slice-by-8 one replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Slice-by-8 gives the bytewise values on every length from 0 to
    /// 300 at every alignment of the slice within its buffer.
    #[test]
    fn slice_by_8_equals_the_bytewise_crc() {
        let buf: Vec<u8> = (0..316u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for align in 0..8 {
            for len in 0..=300 {
                let bytes = &buf[align..align + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} at {align}");
            }
        }
    }

    #[test]
    fn frame_roundtrip() {
        let mut frame = Framed::default();
        frame_record(&mut frame, b"hello".as_slice());
        match decode_frame(&frame, 0) {
            FrameDecode::Frame { payload, next } => {
                assert_eq!(payload.0, b"hello");
                assert_eq!(next, frame.len());
            }
            _ => panic!("clean frame must decode"),
        }
    }

    /// A record decodes and re-encodes to the same bytes; every prefix
    /// of it, a trailing byte, and the JSON a build before PR 25 wrote
    /// for it are refused, never a panic.
    #[test]
    fn encoded_record_round_trips_and_nothing_else_decodes() {
        let (doc, filter, update) = (
            json!({"_id": "m\"1", "n": [1, 2.5, null], "s": {"k": "v\n"}}),
            json!({"_id": {"$in": [1, 2]}}),
            json!({"$inc": {"n": 5}}),
        );
        let cases: Vec<(JournalRef<'_>, Value)> = vec![
            (
                JournalOp::Insert {
                    collection: "c\"x",
                    doc: &doc,
                },
                json!({"op": "i", "c": "c\"x", "d": doc}),
            ),
            (
                JournalOp::Update {
                    collection: "c",
                    filter: &filter,
                    update: &update,
                    many: false,
                },
                json!({"op": "u", "c": "c", "q": filter, "u": update, "m": false}),
            ),
            (
                JournalOp::Delete {
                    collection: "c",
                    filter: &filter,
                    many: true,
                },
                json!({"op": "d", "c": "c", "q": filter, "m": true}),
            ),
            (
                JournalOp::Clear { collection: "c" },
                json!({"op": "cl", "c": "c"}),
            ),
            (
                JournalOp::CreateIndex {
                    collection: "c",
                    path: "a.b",
                    unique: true,
                },
                json!({"op": "ci", "c": "c", "p": "a.b", "uq": true}),
            ),
            (
                JournalOp::DropIndex {
                    collection: "c",
                    path: "a.b",
                },
                json!({"op": "di", "c": "c", "p": "a.b"}),
            ),
            (
                JournalOp::DropCollection { collection: "c" },
                json!({"op": "dc", "c": "c"}),
            ),
        ];
        let mut stamp = Vec::new();
        Stamp(7).write_payload(&mut stamp);
        let generation = (stamp, json!({"op": "gen", "g": 7}));
        let ops = cases.into_iter().map(|(op, rendering)| {
            let mut bytes = Vec::new();
            op.write_payload(&mut bytes);
            (bytes, rendering)
        });
        for (mut bytes, legacy) in ops.chain([generation]) {
            let mut again = Vec::new();
            match Record::decode(Verified(&bytes)).unwrap() {
                Record::Op(op) => op.write_payload(&mut again),
                Record::Generation(gen) => Stamp(gen).write_payload(&mut again),
            }
            assert_eq!(again, bytes, "decode, then encode, gives the same bytes");
            for n in 0..bytes.len() {
                assert!(
                    Record::decode(Verified(&bytes[..n])).is_err(),
                    "{n}-byte prefix"
                );
            }
            let legacy = legacy.to_string();
            assert!(
                Record::decode(Verified(legacy.as_bytes())).is_err(),
                "{legacy}"
            );
            bytes.push(0);
            assert!(Record::decode(Verified(&bytes)).is_err(), "a trailing byte");
        }
        let snapshot_line = br#"{"c":"c","d":{"_id":1}}"#;
        assert!(
            Record::decode(Verified(snapshot_line)).is_err(),
            "a JSON snapshot line"
        );
        assert!(
            Record::decode(Verified(&[0x09, 1, b'c'])).is_err(),
            "unknown tag"
        );
    }

    /// An explicit snapshot is the four steps; afterwards the directory
    /// holds the stamped snapshot and nothing of the generation it
    /// covers, and the next append opens the next generation.
    #[test]
    fn snapshot_stamps_the_generation_it_covers_and_retires_it() {
        let dir = tmpdir("stamp");
        let db = Database::new();
        let mut p = Persister::open(&dir).unwrap();
        p.append_ops(&[JournalOp::Insert {
            collection: "c".into(),
            doc: json!({"_id": 1}),
        }])
        .unwrap();
        db.collection("c").insert_one(json!({"_id": 1})).unwrap();
        p.snapshot(&db).unwrap();
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["snapshot.jsonl"]);
        assert_eq!(p.wal_len(), 0);
        p.append_ops(&[JournalOp::Insert {
            collection: "c".into(),
            doc: json!({"_id": 2}),
        }])
        .unwrap();
        let (rec, report) = Persister::open(&dir)
            .unwrap()
            .recover_with_report()
            .unwrap();
        assert_eq!(report.snapshot_gen, Some(1));
        assert_eq!((report.snapshot_docs, report.replayed_ops), (1, 1));
        assert_eq!(
            (report.sealed_replayed, report.generations_discarded),
            (0, 0)
        );
        assert_eq!(rec.collection("c").len(), 2);
        let _ = std::fs::remove_dir_all(dir);
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
        let _: Acked = sync.sync_to(lsn).unwrap();
        let _: Acked = sync.sync_to(lsn).unwrap(); // already durable: no second fsync
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
        let mut frame = Framed::default();
        let doc = json!({"_id": 2});
        let op: JournalRef<'_> = JournalOp::Insert {
            collection: "c",
            doc: &doc,
        };
        frame_record(&mut frame, &op);
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
        let bytes = std::fs::read(&path).unwrap();
        for garbage in [&b"{not a journal op}"[..], &[INSERT, 1, b'c', 0x7F]] {
            let mut frame = Framed::default();
            frame_record(&mut frame, garbage);
            std::fs::write(&path, [bytes.as_slice(), &frame].concat()).unwrap();
            let err = Persister::open(&dir).unwrap().recover().err();
            assert!(
                err.is_some(),
                "a frame we provably wrote must parse — refusing is the only safe move"
            );
        }
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
