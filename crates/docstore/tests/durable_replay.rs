//! Property test for the write-ahead journal: any sequence of
//! mutations through handles of a durably opened database — bare
//! `Collection`s from [`DurableDatabase::database`], a `LaunchPad` and a
//! `Sandbox` over a clone of it, none of which knows the store is
//! durable — must leave the journal in a state whose replay reproduces
//! the live database, collection by collection, document by document,
//! index by index.
//!
//! No external proptest dependency: a seeded xorshift64* generator
//! drives random op sequences, so failures are reproducible from the
//! printed seed alone.

use mp_docstore::{Database, DurableDatabase, FindOptions, SortDir};
use mp_fireworks::{Firework, LaunchPad, LaunchPadConfig, LaunchReport, Stage, Workflow};
use mp_mapi::Sandbox;
use serde_json::{json, Value};
use std::path::PathBuf;

/// xorshift64* — deterministic, no deps, good enough to shuffle ops.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

const COLLECTIONS: &[&str] = &["alpha", "beta", "gamma"];
const TAGS: &[&str] = &["li", "fe", "o2", "po4"];

fn random_doc(rng: &mut Rng) -> Value {
    let mut doc = json!({
        "k": rng.below(5),
        "n": rng.below(100),
        "tag": *rng.pick(TAGS),
    });
    // Half the documents carry an explicit small _id so that duplicate
    // inserts, id-targeted updates, and unique-index conflicts all
    // actually happen; the rest exercise id auto-assignment.
    if rng.below(2) == 0 {
        doc["_id"] = json!(format!("d{}", rng.below(40)));
    }
    doc
}

fn random_filter(rng: &mut Rng) -> Value {
    match rng.below(4) {
        0 => json!({"k": rng.below(5)}),
        1 => json!({"_id": format!("d{}", rng.below(40))}),
        2 => json!({"tag": *rng.pick(TAGS)}),
        _ => json!({"n": {"$lte": rng.below(100)}}),
    }
}

fn random_update(rng: &mut Rng) -> Value {
    match rng.below(5) {
        0 => json!({"$set": {"k": rng.below(5)}}),
        1 => json!({"$inc": {"n": 1}}),
        2 => json!({"$unset": {"tag": 1}}),
        3 => json!({"$push": {"hist": rng.below(10)}}),
        _ => json!({"$set": {"tag": *rng.pick(TAGS)}}),
    }
}

/// The served path: a workflow engine over a clone of the database.
fn launchpad(db: &Database) -> LaunchPad {
    let config = LaunchPadConfig {
        lint_gate: false,
        ..LaunchPadConfig::default()
    };
    LaunchPad::with_config(db.clone(), config).unwrap()
}

/// One random mutation through a handle of `d`'s database. Ops that
/// legitimately fail (duplicate `_id`, unique-index conflict, dropping a
/// missing index) are ignored — they are journaled and replay as the
/// same failure, which is exactly what the end-state comparison
/// verifies.
fn random_op(rng: &mut Rng, d: &DurableDatabase, pad: &LaunchPad) {
    let db = d.database();
    let name = *rng.pick(COLLECTIONS);
    let c = db.collection(name);
    match rng.below(16) {
        0..=2 => {
            let _ = c.insert_one(random_doc(rng));
        }
        3 => {
            let docs = (0..rng.below(4) + 1).map(|_| random_doc(rng)).collect();
            let _ = c.insert_many(docs);
        }
        4 => {
            let _ = c.update_one(&random_filter(rng), &random_update(rng));
        }
        5 => {
            let _ = c.update_many(&random_filter(rng), &random_update(rng));
        }
        6 => {
            let _ = c.upsert(&random_filter(rng), &random_update(rng));
        }
        7 => {
            let opts = FindOptions::all().sort_by("n", SortDir::Desc);
            let _ =
                c.find_one_and_update(&random_filter(rng), &random_update(rng), Some(&opts), true);
        }
        8 => {
            let _ = c.delete_one(&random_filter(rng));
        }
        9 => {
            let _ = c.delete_many(&random_filter(rng));
        }
        10 => match rng.below(4) {
            0 => {
                let _ = c.create_index("k", false);
            }
            1 => {
                let _ = c.create_index("tag", false);
            }
            2 => {
                // Unique index: only committable while `_id`s happen to
                // be distinct in `k` — conflict is the interesting case.
                let _ = c.create_index("n", true);
            }
            _ => {
                let _ = c.drop_index("k");
            }
        },
        11 => {
            if rng.below(8) == 0 {
                let _ = db.drop_collection(name);
            } else {
                let _ = c.clear();
            }
        }
        12 => {
            // Two-step workflow; a repeated id is refused.
            let n = rng.below(30);
            let (first, second) = (format!("fw{n}a"), format!("fw{n}b"));
            let fws = vec![
                Firework::new(first.as_str(), "relax", Stage::empty()),
                Firework::new(second.as_str(), "static", Stage::empty()).after(&first),
            ];
            if let Ok(wf) = Workflow::new(format!("wf{n}"), fws) {
                let _ = pad.add_workflow(&wf);
            }
        }
        13 => {
            if let Ok(Some(fw)) = pad.claim_next(&json!({}), "w0") {
                let id = fw["_id"].as_str().unwrap().to_string();
                if rng.below(4) > 0 {
                    let task_doc = json!({"status": "converged", "n": rng.below(100)});
                    let _ = pad.report(&id, LaunchReport::Success { task_doc });
                }
            }
        }
        14 => {
            let sandbox = Sandbox::new(db);
            let id = json!(format!("rec{}", rng.below(20)));
            match rng.below(3) {
                0 => {
                    let _ = sandbox.upload("alice", json!({"_id": id, "n": rng.below(100)}));
                }
                1 => {
                    let with = if rng.below(2) == 0 { "bob" } else { "carol" };
                    let _ = sandbox.share("alice", &id, with);
                }
                _ => {
                    let _ = sandbox.publish("alice", &id);
                }
            }
        }
        _ => {
            if rng.below(4) == 0 {
                d.checkpoint().unwrap();
            } else {
                let _ = c.insert_one(random_doc(rng));
            }
        }
    }
}

/// (collection name, sorted index specs, documents in DocId order).
type CollectionState = (String, Vec<(String, bool)>, Vec<Value>);

/// Observable state for every collection with any documents or
/// indexes. Empty index-less collections are excluded: read-path
/// access creates them lazily in the live map, and an op that modified
/// nothing journals nothing — by design only *state* is durable, not
/// map entries.
fn state_of(db: &Database) -> Vec<CollectionState> {
    let mut names = db.collection_names();
    names.sort();
    names
        .into_iter()
        .filter_map(|name| {
            let c = db.collection(&name);
            let mut specs = c.index_specs();
            specs.sort();
            // mp-lint: allow(P002) — the whole point is a deep equality
            // snapshot of every document; this is a test-only boundary.
            let docs: Vec<Value> = c.dump().iter().map(|d| (**d).clone()).collect();
            if docs.is_empty() && specs.is_empty() {
                None
            } else {
                Some((name, specs, docs))
            }
        })
        .collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mp-durable-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn replay_round_trips(seed: u64, ops: usize, checkpoint_at_end: bool) {
    let dir = tmpdir(&format!("s{seed}"));
    let mut rng = Rng::new(seed);
    let live = {
        let d = DurableDatabase::open(&dir).unwrap_or_else(|e| panic!("seed {seed}: open: {e}"));
        let pad = launchpad(d.database());
        for _ in 0..ops {
            random_op(&mut rng, &d, &pad);
        }
        if checkpoint_at_end {
            d.checkpoint().unwrap();
        }
        state_of(d.database())
    };
    let reopened =
        DurableDatabase::open(&dir).unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
    let replayed = state_of(reopened.database());
    assert_eq!(
        replayed, live,
        "seed {seed}: journal replay diverged from live state"
    );
    for served in ["engines", "tasks", "sandbox"] {
        assert!(
            live.iter()
                .any(|(name, _, docs)| name == served && !docs.is_empty()),
            "seed {seed}: the run never wrote `{served}` through its LaunchPad/Sandbox handle"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn random_mutation_sequences_replay_to_the_live_state() {
    for seed in [1, 2, 3, 0xDEAD_BEEF, 0xCAFE_F00D, 42, 4242, 777] {
        replay_round_trips(seed, 300, false);
    }
}

#[test]
fn random_mutation_sequences_with_final_checkpoint_replay_identically() {
    for seed in [5, 6, 0xFACE_FEED] {
        replay_round_trips(seed, 200, true);
    }
}

#[test]
fn replay_is_idempotent_across_repeated_reopens() {
    let dir = tmpdir("idem");
    let mut rng = Rng::new(99);
    {
        let d = DurableDatabase::open(&dir).unwrap();
        let pad = launchpad(d.database());
        for _ in 0..150 {
            random_op(&mut rng, &d, &pad);
        }
    }
    // Reopening without mutating must not change what the next
    // recovery sees: open N times, state is a fixed point.
    let first = state_of(DurableDatabase::open(&dir).unwrap().database());
    for _ in 0..3 {
        let again = state_of(DurableDatabase::open(&dir).unwrap().database());
        assert_eq!(again, first);
    }
    let _ = std::fs::remove_dir_all(dir);
}
