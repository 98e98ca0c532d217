//! A snapshot reopens as one bulk build per collection: the run of a
//! collection's document records becomes vectors of `(key, DocId)`
//! entries borrowed from the documents and sorted on an inline prefix
//! of each key, with `_id`s and unique keys checked on the sorted runs.
//! Its oracle is the store the same records make applied one by one.
//!
//! * `bulk_built_store_equals_one_inserted_one_by_one` writes random
//!   snapshots by hand — documents with nested paths, arrays with
//!   repeated elements, `1` beside `1.0`, strings that tie on the
//!   prefix, missing fields, now and then no `_id` or not an object; index specs unique or not, dotted or
//!   multikey — and reopens each. Where a plain `Database` fed
//!   `insert_one` per document accepts every record, the reopened store
//!   equals it: documents in store order and by `_id`, `find` through
//!   every index with `explain` naming it, `distinct` on every indexed
//!   path, the `_id` the next insert is given. Where the oracle stops,
//!   the reopen is refused, naming the offset of the record it stopped
//!   at.
//! * `insert_many_into_an_empty_collection_equals_insert_one_per_document`
//!   feeds the same documents and index specs to `insert_many` into an
//!   empty collection — the same build — on a plain `Database` and on a
//!   `DurableDatabase` that is reopened afterwards, against `insert_one`
//!   per document in order: the ids returned, or the error and the
//!   documents before it; then the comparisons above.
//! * `refusals_name_the_first_failing_record` builds the faults one at
//!   a time and two to a file, some deep inside a run of thousands of
//!   documents: each open returns `Persistence` naming the earliest
//!   fault's offset, and leaves the directory byte for byte as it was.

use mp_docstore::persist::{frame_record, Framed, JournalOp, JournalRef};
use mp_docstore::{Collection, Database, DurableDatabase, StoreError};
use proptest::prelude::*;
use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mp-snapshot-build-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// One collection of a hand-built snapshot: its index specs, then its
/// documents.
struct Coll {
    name: &'static str,
    indexes: Vec<(String, bool)>,
    docs: Vec<Value>,
}

/// The payload of the generation record `g`.
fn stamp(g: u64) -> Vec<u8> {
    let mut payload = vec![0x01];
    payload.extend_from_slice(&g.to_le_bytes());
    payload
}

/// A snapshot's frames, each framed alone so a test can splice, corrupt
/// or repeat them before they are joined.
fn frames(colls: &[Coll]) -> Vec<Vec<u8>> {
    let mut out = vec![framed(stamp(1).as_slice())];
    for coll in colls {
        for (path, unique) in &coll.indexes {
            let op: JournalRef<'_> = JournalOp::CreateIndex {
                collection: coll.name,
                path,
                unique: *unique,
            };
            out.push(framed(&op));
        }
        for doc in &coll.docs {
            let op: JournalRef<'_> = JournalOp::Insert {
                collection: coll.name,
                doc,
            };
            out.push(framed(&op));
        }
    }
    out
}

fn framed<P: mp_docstore::persist::Payload + ?Sized>(payload: &P) -> Vec<u8> {
    let mut frame = Framed::default();
    frame_record(&mut frame, payload);
    frame.to_vec()
}

/// The frames joined, and where each starts.
fn join(frames: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut starts = Vec::new();
    for frame in frames {
        starts.push(bytes.len());
        bytes.extend_from_slice(frame);
    }
    (bytes, starts)
}

/// The oracle: the collections' records applied one by one to a plain
/// database. Returns it, and the place in `frames(colls)` of the first
/// record it refused, if one was.
fn oracle(colls: &[Coll]) -> (Database, Option<usize>) {
    let db = Database::new();
    let mut frame = 1;
    for coll in colls {
        let c = db.collection(coll.name);
        for (path, unique) in &coll.indexes {
            c.create_index(path, *unique).unwrap();
            frame += 1;
        }
        for doc in &coll.docs {
            if c.insert_one(doc.clone()).is_err() {
                return (db, Some(frame));
            }
            frame += 1;
        }
    }
    (db, None)
}

/// Every file of `dir` with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Open `dir` holding `snapshot`, which must be refused: returns the
/// offset the error names, after checking it is a persistence error
/// naming the snapshot and that the directory is as it was.
fn refused_at(dir: &Path, snapshot: &[u8]) -> usize {
    std::fs::write(dir.join("snapshot.jsonl"), snapshot).unwrap();
    let before = files(dir);
    let msg = match DurableDatabase::open(dir) {
        Err(StoreError::Persistence(msg)) => msg,
        Err(e) => panic!("refused with a non-persistence error: {e}"),
        Ok(_) => panic!("a faulty snapshot opened"),
    };
    let path = dir.join("snapshot.jsonl").display().to_string();
    assert!(msg.contains(&path), "{msg}");
    assert_eq!(files(dir), before, "refusing changed the directory: {msg}");
    let at = msg.split("byte ").nth(1).and_then(|rest| {
        rest.split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    });
    at.unwrap_or_else(|| panic!("no offset named: {msg}"))
}

// ---------------------------------------------------------------------------
// The oracle property
// ---------------------------------------------------------------------------

/// Numbers from a small domain, as integers and as floats: `1` and
/// `1.0` are one key to an index and two values to a document.
fn number() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..4).prop_map(Value::from),
        (0i64..4).prop_map(|n| json!(n as f64)),
        Just(json!(2.5)),
    ]
}

/// Short strings, and strings that tie on a sort key's inline prefix
/// (its first 14 bytes) and differ after it — or, one exactly 14 bytes
/// long, only in length — so the build's sorts, its duplicate-`_id`
/// check and its unique-index stop all take the fallback comparison.
fn text() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just("p"),
        Just("q"),
        Just("materials-proj"),
        Just("materials-proj\0"),
        Just("materials-project-1"),
        Just("materials-project-10"),
        Just("materials-project-2"),
    ]
    .prop_map(Value::from)
}

fn leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        number(),
        number(),
        text(),
        any::<bool>().prop_map(Value::from),
    ]
}

/// `{"x": .., "y": ..}` with either field missing now and then.
fn pair() -> impl Strategy<Value = Value> {
    (maybe(leaf()), maybe(leaf())).prop_map(|(x, y)| {
        let mut m = Map::new();
        for (k, v) in [("x", x), ("y", y)] {
            if let Some(v) = v {
                m.insert(k.to_string(), v);
            }
        }
        Value::Object(m)
    })
}

/// A field that may be missing.
fn maybe(v: impl Strategy<Value = Value> + 'static) -> impl Strategy<Value = Option<Value>> {
    prop_oneof![Just(None), v.prop_map(Some)]
}

/// A document over the paths the index specs use: `a` a leaf, `n` an
/// object or an array of them (so `n.x` walks through an array), `t` a
/// multikey array whose elements repeat, `u` a sparse key from a wider
/// domain (as `7`, `7.0` or `[7, 7]`), and an `_id` that is sometimes
/// missing and sometimes repeats another document's — some of them
/// [`text`] strings that tie on the sort key's prefix.
fn document() -> impl Strategy<Value = Value> {
    let u = (0i64..40, 0u8..3).prop_map(|(n, form)| match form {
        0 => json!(n),
        1 => json!(n as f64),
        _ => json!([n, n]),
    });
    let n = prop_oneof![
        pair(),
        prop::collection::vec(pair(), 0..3).prop_map(Value::Array)
    ];
    let t = prop_oneof![
        prop::collection::vec(number(), 0..4).prop_map(Value::Array),
        number(),
    ];
    let id = prop_oneof![
        Just(None),
        (0i64..60).prop_map(|n| Some(json!(n))),
        (0i64..60).prop_map(|n| Some(json!(format!("i{n}")))),
        (0i64..60).prop_map(|n| Some(json!(n))),
        text().prop_map(Some),
    ];
    (id, (maybe(leaf()), maybe(n), maybe(t), maybe(u)), 0u8..25).prop_map(
        |(id, (a, n, t, u), shape)| {
            if shape == 0 {
                return json!([1, 2]);
            }
            let mut m = Map::new();
            if let Some(id) = id {
                m.insert("_id".to_string(), id);
            }
            for (k, v) in [("a", a), ("n", n), ("t", t), ("u", u)] {
                if let Some(v) = v {
                    m.insert(k.to_string(), v);
                }
            }
            Value::Object(m)
        },
    )
}

/// Up to three index specs over distinct paths: plain, dotted, dotted
/// through an array, multikey; unique a third of the time.
fn index_specs() -> impl Strategy<Value = Vec<(String, bool)>> {
    let path = prop_oneof![Just("a"), Just("n.x"), Just("n.y"), Just("t"), Just("u")];
    prop::collection::vec((path, 0u8..3), 0..4).prop_map(|specs| {
        let mut out: Vec<(String, bool)> = Vec::new();
        for (path, unique) in specs {
            if !out.iter().any(|(p, _)| p == path) {
                out.push((path.to_string(), unique == 0));
            }
        }
        out
    })
}

fn with_field(path: &str, v: Value) -> Value {
    let mut m = Map::new();
    m.insert(path.to_string(), v);
    Value::Object(m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn bulk_built_store_equals_one_inserted_one_by_one(
        c_specs in index_specs(),
        c_docs in prop::collection::vec(document(), 0..12),
        d_specs in index_specs(),
        d_docs in prop::collection::vec(document(), 0..6),
    ) {
        let colls = [
            Coll { name: "c", indexes: c_specs, docs: c_docs },
            Coll { name: "d", indexes: d_specs, docs: d_docs },
        ];
        let dir = tmpdir("oracle");
        let (bytes, starts) = join(&frames(&colls));
        let (want_db, failed) = oracle(&colls);
        if let Some(frame) = failed {
            prop_assert_eq!(refused_at(&dir, &bytes), starts[frame]);
            return Ok(());
        }
        std::fs::write(dir.join("snapshot.jsonl"), &bytes).unwrap();
        let store = DurableDatabase::open(&dir).unwrap();
        for coll in &colls {
            let (got, want) = (store.database().collection(coll.name), want_db.collection(coll.name));
            same_store(&got, &want, &coll.indexes)?;
        }
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `insert_many` into an empty collection takes the bulk build; one
    /// `insert_one` per document in order is its oracle, on a plain
    /// database and on a journaled one, live and reopened.
    #[test]
    fn insert_many_into_an_empty_collection_equals_insert_one_per_document(
        specs in index_specs(),
        docs in prop::collection::vec(document(), 0..12),
    ) {
        // `same_store` inserts into the oracle: one for each comparison.
        let oracle = || {
            let want = Database::new().collection("c");
            for (path, unique) in &specs {
                want.create_index(path, *unique).unwrap();
            }
            let result: Result<Vec<Value>, StoreError> =
                docs.iter().map(|doc| want.insert_one(doc.clone())).collect();
            (want, result)
        };
        let (want, want_result) = oracle();

        let got = Database::new().collection("c");
        for (path, unique) in &specs {
            got.create_index(path, *unique).unwrap();
        }
        prop_assert_eq!(got.insert_many(docs.clone()), want_result.clone());
        same_store(&got, &want, &specs)?;
        let (want, _) = oracle();

        let dir = tmpdir("insert-many");
        let live = {
            let store = DurableDatabase::open(&dir).unwrap();
            for (path, unique) in &specs {
                store.create_index("c", path, *unique).unwrap();
            }
            prop_assert_eq!(store.insert_many("c", docs), want_result);
            let got = store.database().collection("c");
            prop_assert_eq!(got.dump(), want.dump());
            got.dump()
        };
        let reopened = DurableDatabase::open(&dir).unwrap();
        let got = reopened.database().collection("c");
        prop_assert_eq!(got.dump(), live);
        same_store(&got, &want, &specs)?;
        drop(reopened);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `got` holds what `want` does: documents in store order and by `_id`,
/// the index specs, `distinct` on every indexed path, `find` through
/// every index with `explain` naming it, and — inserted last into both —
/// the `_id` the next insert is given.
fn same_store(
    got: &Collection,
    want: &Collection,
    indexes: &[(String, bool)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.dump(), want.dump());
    for doc in want.dump() {
        prop_assert_eq!(got.get(&doc["_id"]), Some(doc.clone()));
    }
    prop_assert_eq!(got.index_specs(), want.index_specs());
    for (path, _) in indexes {
        let values = want.distinct(path, &json!({})).unwrap();
        prop_assert_eq!(&got.distinct(path, &json!({})).unwrap(), &values);
        for v in values.iter().chain([&json!(1), &json!("zz")]) {
            // An equality probe never costs more than a scan, so it
            // always goes through the index; a multikey range or `$in`
            // may cost more, and then both scan.
            let eq = with_field(path, v.clone());
            let explained = got.explain(&eq).unwrap();
            prop_assert_eq!(&explained["index"], &json!(path), "explain {}", eq);
            let queries = [
                eq,
                with_field(path, json!({"$gte": v})),
                with_field(path, json!({"$in": [v, 2]})),
            ];
            for q in queries {
                let (g, w) = (got.explain(&q).unwrap(), want.explain(&q).unwrap());
                prop_assert_eq!(
                    (&g["plan"], &g["index"]),
                    (&w["plan"], &w["index"]),
                    "plan {}",
                    q
                );
                prop_assert_eq!(got.find(&q).unwrap(), want.find(&q).unwrap(), "find {}", q);
            }
        }
    }
    prop_assert_eq!(
        got.insert_one(json!({})).unwrap(),
        want.insert_one(json!({})).unwrap()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Refusals
// ---------------------------------------------------------------------------

/// `n` plain documents with distinct `_id`s and `seq`s.
fn plain(n: usize) -> Vec<Value> {
    (0..n).map(|i| json!({"_id": i, "seq": i})).collect()
}

fn one(name: &'static str, indexes: &[(&str, bool)], docs: Vec<Value>) -> Coll {
    Coll {
        name,
        indexes: indexes.iter().map(|(p, u)| (p.to_string(), *u)).collect(),
        docs,
    }
}

/// A frame that passes its checksum but whose payload does not decode:
/// an insert record cut off inside its document.
fn undecodable() -> Vec<u8> {
    framed([0x02, 1, b'c', 0x7F].as_slice())
}

/// Flip a byte of the payload of `frame`: its checksum no longer holds.
fn corrupt(frame: &mut [u8]) {
    frame[frame.len() - 1] ^= 0x20;
}

#[test]
fn refusals_name_the_first_failing_record() {
    let dir = tmpdir("refusals");
    // A run long enough that a fault sits deep inside it.
    let big = 2_500;
    // Single faults, each where the oracle stops.
    let mut dup_id = plain(5);
    dup_id[3] = json!({"_id": 1, "seq": 30});
    let trap = vec![
        json!({"k": [9, 9.0, 9]}),
        json!({"k": 1}),
        json!({"k": [2, 3]}),
        json!({"k": [4, 9]}), // 9 is d0's: the first document that fails
        json!({"k": [1]}),    // collides on 1, the smaller key, later
    ];
    let mut not_object = plain(5);
    not_object[2] = json!([1, 2]);
    not_object[4] = json!({"_id": 0}); // a duplicate after it changes nothing
    let mut late_dup = plain(big);
    late_dup[2_000] = json!({"_id": 7, "seq": -1});
    let singles = [
        ("duplicate _id", vec![one("c", &[], dup_id)], 1 + 3),
        (
            "multikey unique collision",
            vec![one("c", &[("k", true)], trap)],
            2 + 3,
        ),
        (
            "non-object document",
            vec![one("c", &[], not_object)],
            1 + 2,
        ),
        (
            "duplicate _id deep in a long run",
            vec![one("c", &[("seq", true)], late_dup)],
            2 + 2_000,
        ),
    ];
    for (tag, colls, frame) in singles {
        assert_eq!(
            oracle(&colls).1,
            Some(frame),
            "{tag}: the oracle stops there"
        );
        let (bytes, starts) = join(&frames(&colls));
        assert_eq!(refused_at(&dir, &bytes), starts[frame], "{tag}");
    }

    // Two runs of one collection: the build refuses the second as out
    // of place, naming its first record — before a duplicate inside it,
    // which is where the oracle stops.
    let colls = [
        one("c", &[], plain(3)),
        one("d", &[], plain(2)),
        one("c", &[], vec![json!({"_id": 9}), json!({"_id": 9})]),
    ];
    assert_eq!(oracle(&colls).1, Some(1 + 3 + 2 + 1));
    let (bytes, starts) = join(&frames(&colls));
    assert_eq!(refused_at(&dir, &bytes), starts[1 + 3 + 2], "second run");

    // Two faults to a file: the earlier offset is named, whether the
    // frame check, the decoder or the build finds each.
    let base = || frames(&[one("c", &[("seq", true)], plain(big))]);
    let doc = |i: usize| 2 + i; // the frame of document `i`
    let cases: Vec<(&str, Vec<Vec<u8>>, usize)> = vec![
        (
            "decode failure, later checksum flip",
            {
                let mut f = base();
                f[doc(300)] = undecodable();
                corrupt(&mut f[doc(2_200)]);
                f
            },
            doc(300),
        ),
        (
            "checksum flip, later decode failure",
            {
                let mut f = base();
                corrupt(&mut f[doc(300)]);
                f[doc(2_200)] = undecodable();
                f
            },
            doc(300),
        ),
        (
            "duplicate _id, later second stamp",
            {
                let mut f = base();
                f[doc(1_000)] = framed(&JournalOp::Insert {
                    collection: "c",
                    doc: &json!({"_id": 4}),
                });
                f.insert(doc(2_000), framed(stamp(1).as_slice()));
                f
            },
            doc(1_000),
        ),
        (
            "checksum flip, later duplicate _id",
            {
                let mut f = base();
                corrupt(&mut f[doc(100)]);
                f[doc(2_000)] = framed(&JournalOp::Insert {
                    collection: "c",
                    doc: &json!({"_id": 4}),
                });
                f
            },
            doc(100),
        ),
        (
            "unique collision, later torn tail",
            {
                let mut f = base();
                f[doc(1_500)] = framed(&JournalOp::Insert {
                    collection: "c",
                    doc: &json!({"_id": -1, "seq": 3}),
                });
                let last = f.last_mut().unwrap();
                last.truncate(last.len() - 2);
                f
            },
            doc(1_500),
        ),
    ];
    for (tag, frames, frame) in cases {
        let (bytes, starts) = join(&frames);
        assert_eq!(refused_at(&dir, &bytes), starts[frame], "{tag}");
    }
    let _ = std::fs::remove_dir_all(dir);
}
