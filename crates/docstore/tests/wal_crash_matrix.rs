//! Crash-point matrix for the write-ahead log: simulate a crash at
//! every byte boundary of the WAL and prove the two claims the
//! acknowledgment protocol makes:
//!
//! * **Acknowledged writes survive.** An op is acknowledged only after
//!   its frame is past the group-commit barrier; the recovered state at
//!   any crash point is exactly the prefix of frames the durable bytes
//!   fully contain — never fewer.
//! * **Unacknowledged writes never half-apply.** Replay applies a frame
//!   only if it is complete and its CRC32 verifies; a torn or corrupt
//!   frame truncates the replay point, so no partial document and no
//!   post-gap op is ever visible.
//!
//! Two sweeps over a reference WAL of acknowledged inserts: truncate
//! `journal.wal` at every byte length (a crash losing the tail), and
//! flip every single byte (media corruption mid-file). Sampled points
//! also write *after* recovery and reopen once more, proving the
//! replay point is physically truncated — appending after a torn tail
//! must not resurrect garbage between old and new frames.
//!
//! Then the checkpoint protocol: a checkpoint is stopped at every step
//! boundary (capture → write → publish → retire), with writes
//! acknowledged into the next WAL generation meanwhile, and every
//! directory state must recover exactly the acknowledged state. A
//! directory in any layout an older build wrote is refused, untouched.

use mp_docstore::persist::{frame_record, Framed, JournalRef};
use mp_docstore::{Database, DurableDatabase, DurableOptions, JournalOp, Persister, StoreError};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};

/// Number of acknowledged writes in the reference WAL.
const OPS: usize = 6;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mp-wal-matrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The document acknowledged as write `i`.
fn doc(i: usize) -> Value {
    json!({"_id": format!("m{i}"), "seq": i, "payload": "x".repeat(8 + i)})
}

/// Build the reference store: `OPS` acknowledged single-document
/// inserts, returning the WAL length after each (the frame boundaries
/// every crash point is judged against).
fn build_reference(dir: &Path) -> Vec<u64> {
    let opts = DurableOptions {
        fsync: true,
        compact_after_bytes: None,
    };
    let d = DurableDatabase::open_with(dir, opts).unwrap();
    let mut bounds = Vec::with_capacity(OPS);
    for i in 0..OPS {
        d.insert_one("mats", doc(i)).unwrap();
        bounds.push(d.wal_len());
    }
    bounds
}

/// Copy `src` into a fresh `dst` (flat directory — the persister never
/// nests).
fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Assert the recovered store holds exactly acknowledged writes
/// `0..k`, each byte-for-byte intact.
fn assert_prefix(d: &DurableDatabase, k: usize, ctx: &str) {
    let mut docs = d.database().collection("mats").find(&json!({})).unwrap();
    docs.sort_by_key(|v| v["seq"].as_u64());
    assert_eq!(
        docs.len(),
        k,
        "{ctx}: expected the {k}-op prefix, got {docs:?}"
    );
    for (i, got) in docs.iter().enumerate() {
        assert_eq!(**got, doc(i), "{ctx}: op {i} half-applied or mangled");
    }
}

/// Number of reference frames fully contained in the first `len`
/// durable bytes.
fn frames_within(bounds: &[u64], len: u64) -> usize {
    bounds.iter().filter(|&&b| b <= len).count()
}

#[test]
fn truncation_at_every_byte_recovers_exactly_the_durable_prefix() {
    let base = tmpdir("trunc-base");
    let bounds = build_reference(&base);
    let total = *bounds.last().unwrap();
    let work = tmpdir("trunc-work");
    for len in 0..=total {
        copy_dir(&base, &work);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(work.join("journal.wal"))
            .unwrap();
        f.set_len(len).unwrap();
        drop(f);
        let ctx = format!("crash after {len}/{total} durable bytes");
        let k = frames_within(&bounds, len);
        let d =
            DurableDatabase::open(&work).unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        assert_prefix(&d, k, &ctx);
        // Sampled points: the store must stay writable after a torn
        // recovery, and the new write must not resurrect lost bytes.
        if len % 41 == 0 {
            d.insert_one("post", json!({"_id": "p", "at": len}))
                .unwrap();
            drop(d);
            let again = DurableDatabase::open(&work).unwrap();
            assert_prefix(&again, k, &ctx);
            assert_eq!(
                again.database().collection("post").len(),
                1,
                "{ctx}: post-recovery write lost"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn flipping_any_single_byte_truncates_replay_at_the_corrupt_frame() {
    let base = tmpdir("flip-base");
    let bounds = build_reference(&base);
    let total = *bounds.last().unwrap();
    let work = tmpdir("flip-work");
    for off in 0..total {
        copy_dir(&base, &work);
        let path = work.join("journal.wal");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[off as usize] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let ctx = format!("byte {off}/{total} flipped");
        // Frames wholly before the flipped byte replay; the corrupt
        // frame and everything after it must not.
        let k = frames_within(&bounds, off);
        let d =
            DurableDatabase::open(&work).unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        assert_prefix(&d, k, &ctx);
    }
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn recovery_report_distinguishes_torn_tail_from_corruption() {
    let base = tmpdir("report");
    let bounds = build_reference(&base);
    let total = *bounds.last().unwrap();

    // Torn tail: half of the final frame is missing.
    let work = tmpdir("report-torn");
    copy_dir(&base, &work);
    let torn_at = (bounds[OPS - 2] + total) / 2;
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(work.join("journal.wal"))
        .unwrap();
    f.set_len(torn_at).unwrap();
    drop(f);
    let mut p = Persister::open(&work).unwrap();
    let (_, report) = p.recover_with_report().unwrap();
    assert_eq!(report.replayed_ops, OPS - 1);
    assert!(report.torn_tail.is_some(), "{report:?}");
    assert_eq!(report.replay_lsn, bounds[OPS - 2]);

    // Mid-file corruption: a payload byte of frame 1 is flipped, so
    // replay truncates there even though later frames are intact.
    let work2 = tmpdir("report-flip");
    copy_dir(&base, &work2);
    let path = work2.join("journal.wal");
    let mut bytes = std::fs::read(&path).unwrap();
    let inside_frame_1 = (bounds[0] + 9) as usize;
    bytes[inside_frame_1] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let mut p2 = Persister::open(&work2).unwrap();
    let (db, report2) = p2.recover_with_report().unwrap();
    assert_eq!(report2.replayed_ops, 1);
    assert!(report2.corruption.is_some(), "{report2:?}");
    assert_eq!(report2.replay_lsn, bounds[0]);
    assert_eq!(db.collection("mats").len(), 1);

    for d in [base, work, work2] {
        let _ = std::fs::remove_dir_all(d);
    }
}

// ---------------------------------------------------------------------
// The checkpoint protocol, stopped at every step boundary.
// ---------------------------------------------------------------------

/// Journal `op` and apply it to the live database, the way the commit
/// seam does: once this returns the op is acknowledged.
fn commit(p: &mut Persister, live: &Database, op: JournalOp) {
    p.append_ops(std::slice::from_ref(&op)).unwrap();
    op.apply(live).unwrap();
}

fn insert(id: u64, n: i64) -> JournalOp {
    JournalOp::Insert {
        collection: "c".into(),
        doc: json!({"_id": id, "n": n}),
    }
}

fn inc(id: u64, by: i64) -> JournalOp {
    JournalOp::Update {
        collection: "c".into(),
        filter: json!({"_id": id}),
        update: json!({"$inc": {"n": by}}),
        many: false,
    }
}

/// Every document of every collection, in a comparable order.
type Contents = Vec<(String, Vec<String>)>;

fn contents(db: &Database) -> Contents {
    db.collection_names()
        .into_iter()
        .map(|name| {
            let mut docs: Vec<String> = db
                .collection(&name)
                .dump()
                .iter()
                .map(|d| d.to_string())
                .collect();
            docs.sort();
            (name, docs)
        })
        .collect()
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// What recovery must report for one crash point: the snapshot's
/// stamp, sealed generations replayed, generations discarded.
type Expect = (Option<u64>, usize, usize);

#[test]
fn crash_at_every_checkpoint_step_recovers_the_acknowledged_state() {
    let dir = tmpdir("ckpt-live");
    let live = Database::new();
    let mut p = Persister::open(&dir).unwrap();
    p.recover().unwrap();
    live.collection("c").create_index("n", false).unwrap();
    commit(
        &mut p,
        &live,
        JournalOp::CreateIndex {
            collection: "c".into(),
            path: "n".into(),
            unique: false,
        },
    );
    // Generation 1: what the checkpoint will contain.
    commit(&mut p, &live, insert(1, 0));
    commit(&mut p, &live, inc(1, 5));
    commit(&mut p, &live, insert(2, 100));

    let mut states: Vec<(&str, PathBuf, Expect, Contents)> = Vec::new();
    let mut crash_here = |tag: &'static str, expect: Expect, live: &Database| {
        let copy = tmpdir(&format!("ckpt-{tag}"));
        copy_dir(&dir, &copy);
        states.push((tag, copy, expect, contents(live)));
    };

    // Step 1, capture: generation 1 is sealed, nothing appended since.
    let checkpoint = p.capture(&live).unwrap();
    assert_eq!(p.wal_len(), 0, "the seal starts an empty generation");
    crash_here("sealed-empty-active", (None, 1, 0), &live);

    // Commits go on while the checkpoint is in flight — acknowledged
    // into generation 2. None of them is idempotent against the
    // snapshot: a second replay of generation 1 under them, or a replay
    // of them over a state missing generation 1, gives another `n`.
    commit(&mut p, &live, inc(1, 7));
    commit(&mut p, &live, inc(2, -1)); // the update half of insert(2)/inc(2)
    commit(&mut p, &live, insert(3, 30));
    commit(&mut p, &live, inc(3, 3));
    crash_here("sealed-active", (None, 1, 0), &live);

    // Step 2, write — stopped halfway, then complete but not renamed.
    Persister::write(&checkpoint).unwrap();
    let tmp = dir.join("snapshot.jsonl.tmp");
    let whole = std::fs::read(&tmp).unwrap();
    std::fs::write(&tmp, &whole[..whole.len() / 2]).unwrap();
    crash_here("partial-tmp", (None, 1, 0), &live);
    std::fs::write(&tmp, &whole).unwrap();
    crash_here("complete-tmp", (None, 1, 0), &live);

    // Step 3, publish: the snapshot is named, the sealed generation it
    // covers is still there and must not replay over it.
    Persister::publish(&checkpoint).unwrap();
    assert!(dir.join("journal.1.sealed").exists());
    commit(&mut p, &live, inc(1, 11));
    crash_here("published-unretired", (Some(1), 0, 1), &live);

    // Step 4, retire.
    Persister::retire(checkpoint).unwrap();
    assert_eq!(file_names(&dir), ["journal.wal", "snapshot.jsonl"]);
    crash_here("retired", (Some(1), 0, 0), &live);

    for (tag, copy, (stamp, replayed, discarded), acknowledged) in states {
        let (db, report) = Persister::open(&copy)
            .unwrap()
            .recover_with_report()
            .unwrap_or_else(|e| panic!("{tag}: recovery failed: {e}"));
        assert_eq!(contents(&db), acknowledged, "{tag}: {report:?}");
        assert_eq!(
            db.collection("c").index_specs(),
            vec![("n".to_string(), false)],
            "{tag}"
        );
        assert_eq!(report.snapshot_gen, stamp, "{tag}: {report:?}");
        assert_eq!(report.sealed_replayed, replayed, "{tag}: {report:?}");
        assert_eq!(report.generations_discarded, discarded, "{tag}: {report:?}");
        assert!(report.torn_tail.is_none() && report.corruption.is_none());
        assert!(!copy.join("snapshot.jsonl.tmp").exists(), "{tag}");
        // The recovered store takes writes and a full checkpoint, and
        // is left with one snapshot and nothing else.
        drop(db);
        let d = DurableDatabase::open(&copy).unwrap();
        d.insert_one("c", json!({"_id": 99, "n": 0})).unwrap();
        d.checkpoint().unwrap();
        assert_eq!(file_names(&copy), ["snapshot.jsonl"], "{tag}");
        drop(d);
        let again = DurableDatabase::open(&copy).unwrap();
        assert_eq!(
            again.database().collection("c").len(),
            acknowledged[0].1.len() + 1,
            "{tag}"
        );
        let _ = std::fs::remove_dir_all(copy);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The seal fsyncs a generation before its successor's first frame can
/// be acknowledged, so a torn sealed generation is media damage, not a
/// crash. Recovery must then stop there: ops of the active generation
/// were acknowledged on top of the *whole* sealed one and may not
/// replay against less.
#[test]
fn torn_sealed_generation_never_lets_the_active_one_replay() {
    let dir = tmpdir("torn-sealed");
    let live = Database::new();
    let mut p = Persister::open(&dir).unwrap();
    commit(&mut p, &live, insert(1, 0));
    let kept = p.wal_len();
    commit(&mut p, &live, inc(1, 5));
    let _in_flight = p.capture(&live).unwrap();
    commit(&mut p, &live, inc(1, 7));

    let sealed = dir.join("journal.1.sealed");
    let len = std::fs::metadata(&sealed).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&sealed)
        .unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let (db, report) = Persister::open(&dir)
        .unwrap()
        .recover_with_report()
        .unwrap();
    assert!(report.torn_tail.is_some(), "{report:?}");
    assert_eq!(
        db.collection("c").get(&json!(1)).unwrap()["n"],
        json!(0),
        "the $inc 7 of the active generation replayed without the $inc 5 under it"
    );
    assert_eq!(report.replayed_ops, 1);
    assert_eq!(std::fs::metadata(&sealed).unwrap().len(), kept);
    assert!(!dir.join("journal.wal").exists());
    let _ = std::fs::remove_dir_all(dir);
}

/// The bug the generation stamp fixes. Before it, a crash after the
/// snapshot's rename and before the WAL's removal recovered the *new*
/// snapshot and then replayed the *whole old* WAL over it: `n` read 10.
#[test]
fn old_wal_left_beside_a_newer_snapshot_is_not_replayed_over_it() {
    let dir = tmpdir("stale-wal");
    let d = DurableDatabase::open(&dir).unwrap();
    d.insert_one("c", json!({"_id": 1, "n": 0})).unwrap();
    d.update_one("c", &json!({"_id": 1}), &json!({"$inc": {"n": 5}}))
        .unwrap();
    let old_wal = std::fs::read(dir.join("journal.wal")).unwrap();
    d.checkpoint().unwrap();
    drop(d);
    std::fs::write(dir.join("journal.wal"), old_wal).unwrap();

    let (db, report) = Persister::open(&dir)
        .unwrap()
        .recover_with_report()
        .unwrap();
    assert_eq!(db.collection("c").get(&json!(1)).unwrap()["n"], json!(5));
    assert_eq!(report.snapshot_gen, Some(1));
    assert_eq!(
        (report.replayed_ops, report.generations_discarded),
        (0, 1),
        "{report:?}"
    );
    // And through the front door, with a write after it.
    let d = DurableDatabase::open(&dir).unwrap();
    d.update_one("c", &json!({"_id": 1}), &json!({"$inc": {"n": 1}}))
        .unwrap();
    drop(d);
    let d = DurableDatabase::open(&dir).unwrap();
    assert_eq!(
        d.database().collection("c").get(&json!(1)).unwrap()["n"],
        json!(6)
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Offsets at which the frames of `bytes` start.
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        starts.push(off);
        match mp_docstore::persist::decode_frame(bytes, off) {
            mp_docstore::persist::FrameDecode::Frame { next, .. } => off = next,
            _ => panic!("the reference snapshot has a bad frame at byte {off}"),
        }
    }
    starts
}

/// Snapshot records are checksummed: flip any one byte of a published
/// snapshot — every bit of it alone, or all eight — and the reopen
/// either refuses, naming the offset of the frame the byte is in, or
/// recovers exactly the reference store — never a different one. (A
/// JSON snapshot, which carried no checksum, loaded about a third of
/// its single-bit flips as a different store: EXPERIMENTS PR 25.)
#[test]
fn flipping_any_byte_of_a_published_snapshot_is_refused_or_harmless() {
    let base = tmpdir("snap-flip-base");
    {
        let d = DurableDatabase::open(&base).unwrap();
        d.create_index("mats", "seq", true).unwrap();
        for i in 0..3 {
            d.insert_one("mats", doc(i)).unwrap();
        }
        d.checkpoint().unwrap();
    }
    assert_eq!(file_names(&base), ["snapshot.jsonl"]);
    let reference = contents(&Persister::open(&base).unwrap().recover().unwrap());
    let snapshot = std::fs::read(base.join("snapshot.jsonl")).unwrap();
    assert_ne!(
        snapshot.first(),
        Some(&b'{'),
        "the snapshot is written binary"
    );
    let starts = frame_starts(&snapshot);
    assert_eq!(starts.len(), 1 + 1 + 3, "stamp, index, three documents");
    let work = tmpdir("snap-flip-work");
    let masks = [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF];
    let mut refused = 0;
    for (off, mask) in (0..snapshot.len()).flat_map(|off| masks.map(|m| (off, m))) {
        copy_dir(&base, &work);
        let mut bytes = snapshot.clone();
        bytes[off] ^= mask;
        std::fs::write(work.join("snapshot.jsonl"), &bytes).unwrap();
        let frame = starts.iter().rev().find(|&&s| s <= off).unwrap();
        let ctx = format!("byte {off} ^ {mask:#04x}");
        match Persister::open(&work).unwrap().recover() {
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains(&format!("byte {frame}")), "{ctx}: {msg}");
                refused += 1;
            }
            Ok(db) => {
                assert_eq!(contents(&db), reference, "{ctx}");
                let specs = db.collection("mats").index_specs();
                assert_eq!(specs, vec![("seq".to_string(), true)], "{ctx}");
            }
        }
    }
    assert_eq!(
        refused,
        snapshot.len() * masks.len(),
        "every flip lands in a checksummed frame"
    );
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&work);
}

/// `records` as CRC frames of their JSON text: a WAL as builds before
/// PR 25 wrote it.
fn json_wal(records: &[&str]) -> Vec<u8> {
    let mut wal = Framed::default();
    for record in records {
        frame_record(&mut wal, record.as_bytes());
    }
    wal.to_vec()
}

/// The binary payload of the generation record `g`.
fn stamp(g: u64) -> Vec<u8> {
    let mut payload = vec![0x01];
    payload.extend_from_slice(&g.to_le_bytes());
    payload
}

/// Every file of `dir` with its bytes, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    file_names(dir)
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            (name, bytes)
        })
        .collect()
}

/// Directories in every layout an older build wrote, and two binary
/// files whose generation record is out of place, are refused: `open`
/// returns a `Persistence` error naming the file and the offset, and
/// every file is left byte for byte as it was.
#[test]
fn older_layouts_are_refused_and_left_untouched() {
    let inc = |by: u32| {
        format!(r#"{{"op":"u","c":"c","q":{{"_id":1}},"u":{{"$inc":{{"n":{by}}}}},"m":false}}"#)
    };
    // Before PR 16: an unstamped JSON snapshot, a WAL whose first
    // frame is an op.
    let unstamped = vec![
        (
            "snapshot.jsonl",
            concat!(
                r#"{"c":"c","idx":{"path":"n","unique":false}}"#,
                "\n",
                r#"{"c":"c","d":{"_id":1,"n":5}}"#,
                "\n"
            )
            .as_bytes()
            .to_vec(),
        ),
        (
            "journal.wal",
            json_wal(&[&inc(5), r#"{"op":"i","c":"c","d":{"_id":2,"n":1}}"#]),
        ),
    ];
    // PRs 16–24: a JSON snapshot stamped `{"gen":g}`, WAL generations
    // of JSON frames opened by `{"op":"gen"}`.
    let stamped_json = vec![
        (
            "snapshot.jsonl",
            concat!(
                r#"{"gen":2}"#,
                "\n",
                r#"{"c":"c","idx":{"path":"n","unique":false}}"#,
                "\n",
                r#"{"c":"c","d":{"_id":1,"n":5}}"#,
                "\n"
            )
            .as_bytes()
            .to_vec(),
        ),
        (
            "journal.2.sealed",
            json_wal(&[r#"{"op":"gen","g":2}"#, &inc(100)]),
        ),
        (
            "journal.3.sealed",
            json_wal(&[r#"{"op":"gen","g":3}"#, &inc(5)]),
        ),
        (
            "journal.wal",
            json_wal(&[
                r#"{"op":"gen","g":4}"#,
                r#"{"op":"i","c":"c","d":{"_id":2,"n":1}}"#,
            ]),
        ),
    ];
    // A JSON active WAL and nothing else.
    let json_active = vec![(
        "journal.wal",
        json_wal(&[
            r#"{"op":"gen","g":1}"#,
            r#"{"op":"ci","c":"c","p":"k","uq":true}"#,
            r#"{"op":"i","c":"c","d":{"_id":1,"k":1}}"#,
        ]),
    )];
    // Binary frames with the generation record missing or repeated.
    let doc = json!({"_id": 2, "n": 1});
    let insert: JournalRef<'_> = JournalOp::Insert {
        collection: "c",
        doc: &doc,
    };
    let mut op_first = Framed::default();
    frame_record(&mut op_first, &insert);
    frame_record(&mut op_first, stamp(1).as_slice());
    let mut stamped_twice = Framed::default();
    frame_record(&mut stamped_twice, stamp(1).as_slice());
    frame_record(&mut stamped_twice, &insert);
    let second_stamp = stamped_twice.len();
    frame_record(&mut stamped_twice, stamp(1).as_slice());
    let cases = [
        ("unstamped", unstamped, "snapshot.jsonl", 0),
        ("stamped-json", stamped_json, "snapshot.jsonl", 0),
        ("json-active-wal", json_active, "journal.wal", 0),
        (
            "binary-wal-op-first",
            vec![("journal.wal", op_first.to_vec())],
            "journal.wal",
            0,
        ),
        (
            "binary-snapshot-op-first",
            vec![("snapshot.jsonl", op_first.to_vec())],
            "snapshot.jsonl",
            0,
        ),
        (
            "binary-wal-stamped-twice",
            vec![("journal.wal", stamped_twice.to_vec())],
            "journal.wal",
            second_stamp,
        ),
    ];
    for (tag, layout, file, offset) in cases {
        let dir = tmpdir(&format!("refuse-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in &layout {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let before = files(&dir);
        match DurableDatabase::open(&dir) {
            Err(StoreError::Persistence(msg)) => {
                let path = dir.join(file).display().to_string();
                assert!(msg.contains(&path), "{tag}: {msg}");
                let at = msg.split("byte ").nth(1).and_then(|rest| {
                    rest.split(|c: char| !c.is_ascii_digit())
                        .next()?
                        .parse::<usize>()
                        .ok()
                });
                assert_eq!(at, Some(offset), "{tag}: {msg}");
            }
            Err(e) => panic!("{tag}: refused with a non-persistence error: {e}"),
            Ok(_) => panic!("{tag}: an older layout opened"),
        }
        assert_eq!(files(&dir), before, "{tag}: refusing changed the directory");
        let _ = std::fs::remove_dir_all(dir);
    }
}
