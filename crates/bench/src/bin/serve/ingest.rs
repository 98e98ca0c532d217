//! `ingest_mixed`: writes beside reads on one `DurableDatabase`. One
//! open-loop writer issues durable ops at a fixed rate (`insert_one`
//! into `tasks`; every 1024th an `update_one` on a `materials` document
//! — the derived-view refresh that bumps the collection generation),
//! each timed from when it was due, while one closed-loop reader issues
//! lookups through the API over the same database. Then the store is
//! dropped, reopened and checked against what was acknowledged. Same
//! cache and scan layers as the other API workloads, used differently:
//! generation invalidation, FIFO eviction, WAL append, fsync wait and
//! checkpoint stalls.
//!
//! The writer is the paced side because an fsync'd write is as fast as
//! the host's disk flushes, which on the reference box drift by a
//! quarter within a minute and twofold within the hour: a closed-loop
//! writer makes the write count, the checkpoint count, the collection
//! sizes and the memory of a run follow the disk. At a fixed rate below
//! what the disk sustains all of them repeat, the reader's numbers
//! depend on the code, and the disk shows only in `write_ack_*`. The
//! reader is the closed loop because a paced reader's latencies from
//! the due time follow the host's scheduler instead (both shapes were
//! measured; spreads in the README). Each of the two has a core to
//! itself for the window.

use crate::api::{self, CacheDelta, Deployment, Tally, Tracing, Twins, RECYCLE_AFTER};
use crate::corpus::{Class, Corpus, IngestReads, IngestWrites, WriteOp};
use crate::host::{self, Cpu};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::{timed_setups, Config, Outcome};
use mp_docstore::{Database, DurableDatabase, DurableOptions};
use mp_exec::CacheStats;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Smaller than the read-only workloads' corpus: every set-up loads it
/// through the WAL, checkpoints and reopens, and every checkpoint of the
/// measured window rewrites it (about 0.2 s each).
const CORPUS: usize = 25_000;
/// Ids the reader draws from, Zipf(0.9): 78x the query cache.
const HOT_IDS: usize = 20_000;
/// Open-loop write rate, durable ops per second: under half of what an
/// fsync'd single writer reaches on the reference box at its slowest.
const WRITE_RATE: u64 = 1_500;
const REFRESH_EVERY: u64 = 1024;
/// The field the refresh sets; the reader's payload check skips it.
const REFRESH_FIELD: &str = "refreshed";
/// Flush policy, stated and fixed: fsync before every acknowledgement,
/// checkpoint when the WAL passes 512 KiB (about every 1,900 writes, so
/// a 10 s window sees 7 or 8; the snapshot is some twenty times the
/// threshold, so a checkpoint is felt).
const POLICY: DurableOptions = DurableOptions {
    fsync: true,
    compact_after_bytes: Some(512 << 10),
};
/// Traced run: this many writes (10 s of them); one insert in
/// `TRACE_EVERY_WRITE` and one lookup in `TRACE_EVERY_READ` are replayed
/// on the twins.
const TRACED_WRITES: u64 = 15_000;
const TRACE_EVERY_WRITE: u64 = 16;
const TRACE_EVERY_READ: u64 = 256;
const REOPENS: usize = 5;
/// Percentile of the bounded tail. About one lookup per write waits for
/// it (1,500 of ~125,000 a second, 20-50 us against a 6.6 us median), so
/// the 99th percentile falls where those lookups begin and reads 3.1 to
/// 3.7 times the median as the host's speed moves their share; the 99.5th
/// lies among them at every speed measured.
const TAIL_PCT: f64 = 99.5;

fn open(dir: &Path, opts: DurableOptions) -> DurableDatabase {
    DurableDatabase::open_with(dir, opts).expect("store directory opens")
}

/// Load the corpus through the store, checkpoint, close, reopen.
fn load(dir: &Path, docs: Vec<Value>) -> DurableDatabase {
    let _ = std::fs::remove_dir_all(dir);
    {
        let store = open(dir, POLICY);
        store
            .create_index("materials", "chemsys", false)
            .expect("fresh index");
        store
            .create_index("materials", "formula", false)
            .expect("fresh index");
        store
            .insert_many("materials", docs)
            .expect("generated ids are unique");
        store.checkpoint().expect("checkpoint");
    }
    open(dir, POLICY)
}

/// What the writer was told is durable.
#[derive(Default)]
struct Acked {
    /// Ops acknowledged, inserts and refreshes together; op `k` of the
    /// stream inserted `task-k` unless it was a refresh.
    ops: u64,
    inserts: u64,
    /// Last acknowledged stamp per refreshed material (corpus index).
    stamps: BTreeMap<usize, u64>,
    failed: u64,
    /// Acknowledgement latencies, each from when its op was due.
    acks: Samples,
    /// How late the generator issued each op.
    lateness: Samples,
    user_bytes: u64,
    wal_bytes: u64,
    checkpoints: u64,
    stall_max_ns: u64,
}

/// Writer-side twins: the same insert on a store that skips the fsync,
/// and on a volatile database.
struct WriteTwins {
    tracer: Tracer,
    nofsync: DurableDatabase,
    volatile: Database,
    /// Probes that returned an error.
    errors: u64,
}

impl WriteTwins {
    /// Replay the insert of `doc` (op number `id`, acknowledged over
    /// `start..end`) layer by layer: the root's self time is the fsync
    /// wait, `append_apply`'s is the WAL append.
    fn probe(&mut self, corpus: &Corpus, id: u64, doc: &Value, start: Instant, end: Instant) {
        let root = self
            .tracer
            .record("durable.insert_one", "write", id, None, start, end);
        let (append, durable) =
            self.tracer
                .span("durable.append_apply", "write", id, Some(root), || {
                    self.nofsync.insert_one("tasks", doc.clone())
                });
        let tasks = self.volatile.collection("tasks");
        let (_, plain) = self
            .tracer
            .span("docstore.insert_one", "write", id, Some(append), || {
                tasks.insert_one(doc.clone())
            });
        // A free-standing probe of the refresh's in-memory part, on a
        // material that moves with the op number.
        let materials = self.volatile.collection("materials");
        let target = json!({"_id": corpus.records[id as usize % corpus.records.len()].id});
        let update = json!({"$set": {REFRESH_FIELD: id}});
        let (_, updated) = self
            .tracer
            .span("docstore.update_one", "write", id, None, || {
                materials.update_one(&target, &update)
            });
        self.errors +=
            u64::from(durable.is_err()) + u64::from(plain.is_err()) + u64::from(updated.is_err());
    }
}

/// Apply one durable op; returns (acknowledged, when it started, when
/// the acknowledgement came, user bytes written). Only the store call
/// is timed.
fn write_one(
    store: &DurableDatabase,
    corpus: &Corpus,
    op: &WriteOp,
) -> (bool, Instant, Instant, u64) {
    match op {
        WriteOp::InsertTask(doc) => {
            let (bytes, doc) = (doc.to_string().len(), doc.clone());
            let t = Instant::now();
            let ok = store.insert_one("tasks", doc).is_ok();
            (ok, t, Instant::now(), bytes as u64)
        }
        WriteOp::RefreshMaterial { idx, stamp } => {
            let filter = json!({"_id": corpus.records[*idx].id});
            let update = json!({"$set": {REFRESH_FIELD: stamp}});
            let bytes = update.to_string().len();
            let t = Instant::now();
            let ok = store
                .update_one("materials", &filter, &update)
                .is_ok_and(|r| r.matched == 1);
            (ok, t, Instant::now(), bytes as u64)
        }
    }
}

/// Wait for `due`, sleeping through most of the gap and spinning the
/// last 100 µs; returns how late the wait ended, in ns.
fn wait_until(due: Instant) -> u64 {
    loop {
        let now = Instant::now();
        if now >= due {
            return (now - due).as_nanos() as u64;
        }
        if due - now > Duration::from_micros(150) {
            std::thread::sleep(due - now - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The open-loop writer: op `k` is due `k / WRITE_RATE` s after the
/// start, whatever the store is doing, and its acknowledgement is timed
/// from then, so a stall charges every op it delays. Runs until
/// `stop(ops issued, when the next is due)`.
fn writer(
    store: &DurableDatabase,
    corpus: &Corpus,
    writes: &mut IngestWrites,
    mut twins: Option<&mut WriteTwins>,
    stop: &dyn Fn(u64, Duration) -> bool,
) -> Acked {
    let mut acked = Acked::default();
    let mut wal = store.wal_len();
    let t0 = Instant::now();
    loop {
        let offset = Duration::from_nanos(acked.ops * 1_000_000_000 / WRITE_RATE);
        if stop(acked.ops, offset) {
            return acked;
        }
        let due = t0 + offset;
        acked.lateness.push(wait_until(due));
        let op = writes.next().expect("the stream is endless");
        let (ok, start, end, bytes) = write_one(store, corpus, &op);
        // A fallen WAL length means this op's commit checkpointed.
        let wal_now = store.wal_len();
        if wal_now < wal {
            acked.checkpoints += 1;
            acked.stall_max_ns = acked.stall_max_ns.max((end - start).as_nanos() as u64);
        } else {
            acked.wal_bytes += wal_now - wal;
        }
        wal = wal_now;
        acked.ops += 1;
        if !ok {
            acked.failed += 1;
            continue;
        }
        acked.acks.push((end - due).as_nanos() as u64);
        acked.user_bytes += bytes;
        match &op {
            WriteOp::InsertTask(doc) => {
                acked.inserts += 1;
                if let Some(tw) = twins
                    .as_deref_mut()
                    .filter(|_| acked.inserts % TRACE_EVERY_WRITE == 1)
                {
                    tw.probe(corpus, acked.ops, doc, start, end);
                }
            }
            WriteOp::RefreshMaterial { idx, stamp } => {
                acked.stamps.insert(*idx, *stamp);
            }
        }
    }
}

/// The closed-loop reader: one lookup after another until `done`, on a
/// `MaterialsApi` over `db` that is recycled every [`RECYCLE_AFTER`]
/// lookups.
fn reader(
    db: &Database,
    corpus: &Corpus,
    reads: &mut IngestReads,
    mut tracing: Option<&mut Tracing>,
    done: &AtomicBool,
) -> (Tally, CacheDelta) {
    let mut tally = Tally::default();
    let mut cache = CacheDelta::default();
    let mut k = 0;
    while !done.load(Ordering::Relaxed) {
        let served = Deployment::over(db.clone());
        let mut client = served.client(corpus, 0, 1).ignoring(REFRESH_FIELD);
        let recycle_at = k + RECYCLE_AFTER;
        while k < recycle_at && !done.load(Ordering::Relaxed) {
            client.step(reads.next_request(), k, &mut tally, tracing.as_deref_mut());
            k += 1;
        }
        // A fresh engine's counters start at zero.
        cache.add(
            &CacheStats::default(),
            &served.api.query_engine().cache_stats(),
        );
    }
    (tally, cache)
}

/// Reopen the closed directory and count what is missing of the
/// acknowledged state. Returns (lost writes, live user bytes).
fn verify(dir: &Path, corpus: &Corpus, acked: &Acked) -> (u64, u64) {
    let store = open(dir, POLICY);
    let db = store.database();
    let tasks = db.collection("tasks");
    let materials = db.collection("materials");
    let mut lost = 0;
    for op in 1..=acked.ops {
        if op % REFRESH_EVERY != 0 && tasks.get(&json!(format!("task-{op}"))).is_none() {
            lost += 1;
        }
    }
    lost += (tasks.len() as u64).abs_diff(acked.inserts);
    lost += (materials.len() as u64).abs_diff(corpus.records.len() as u64);
    for (idx, stamp) in &acked.stamps {
        let doc = materials.get(&json!(corpus.records[*idx].id));
        if doc.is_none_or(|d| d[REFRESH_FIELD] != json!(stamp)) {
            lost += 1;
        }
    }
    let live: usize = [tasks, materials]
        .iter()
        .flat_map(|c| c.dump())
        .map(|d| d.to_string().len())
        .sum();
    (lost, live as u64)
}

pub fn run(cfg: &Config) -> Outcome {
    let corpus = Corpus::generate(cfg.seed, CORPUS / cfg.scale);
    let dir = cfg.data_dir.join(format!("ingest-{}", std::process::id()));
    let (store, setup_s) = timed_setups(cfg, || {
        let docs = corpus.docs();
        || load(&dir, docs)
    });
    let db = store.database().clone();
    let mut reads = IngestReads::new(&corpus, cfg.seed, HOT_IDS / cfg.scale);
    let mut writes = IngestWrites::new(cfg.seed, corpus.records.len(), REFRESH_EVERY);

    let done = AtomicBool::new(false);
    let mut out = Outcome::default();
    let t = Instant::now();
    let mut tracing = cfg
        .trace
        .then(|| Tracing::new(Twins::new(&db), |_| TRACE_EVERY_READ));
    let twin_dir = cfg
        .data_dir
        .join(format!("ingest-twin-{}", std::process::id()));
    let mut write_twins = cfg.trace.then(|| {
        let _ = std::fs::remove_dir_all(&twin_dir);
        let volatile = Database::new();
        api::load_materials(&volatile, corpus.docs());
        WriteTwins {
            tracer: Tracer::new(),
            nofsync: open(
                &twin_dir,
                DurableOptions {
                    fsync: false,
                    ..POLICY
                },
            ),
            volatile,
            errors: 0,
        }
    });
    let traced_writes = TRACED_WRITES / cfg.scale as u64;
    let stop = |ops: u64, next_due: Duration| {
        if cfg.trace {
            ops >= traced_writes
        } else {
            next_due >= cfg.window()
        }
    };
    let (mut acked, (mut read_tally, cache)) = std::thread::scope(|s| {
        // One core each: see `host::on_cpu`. The writer takes the last CPU,
        // where the reference box handles its disk's interrupts.
        let reading = s.spawn(|| {
            host::on_cpu(Cpu::First, || {
                reader(&db, &corpus, &mut reads, tracing.as_mut(), &done)
            })
        });
        let acked = host::on_cpu(Cpu::Last, || {
            writer(&store, &corpus, &mut writes, write_twins.as_mut(), &stop)
        });
        done.store(true, Ordering::Relaxed);
        (acked, reading.join().expect("reader thread"))
    });
    let wall_s = t.elapsed().as_secs_f64();

    let (barriers, fsyncs) = store.commit_stats();
    cache.report(&mut out);
    drop(db);
    drop(store);
    let disk_bytes = host::dir_bytes(&dir);
    let snapshot_bytes = host::file_bytes(&dir.join("snapshot.jsonl"));
    let wal_bytes_at_close = host::file_bytes(&dir.join("journal.wal"));
    let (lost, live_bytes) = verify(&dir, &corpus, &acked);
    let probe_errors = write_twins.as_ref().map_or(0, |tw| tw.errors);

    // The issue's end-to-end numbers for this workload, from every run.
    let recovery_s = median(
        (0..REOPENS)
            .map(|_| {
                let t = Instant::now();
                let store = open(&dir, POLICY);
                let s = t.elapsed().as_secs_f64();
                drop(store);
                s
            })
            .collect(),
    );
    out.set("recovery_s", recovery_s);
    out.set(
        "disk_bytes_per_user_byte",
        disk_bytes as f64 / live_bytes.max(1) as f64,
    );
    out.set("write_ack_p50_us", acked.acks.median_ns() / 1e3);
    out.set("write_ack_p99_us", acked.acks.tail_ns(99.0).1 / 1e3);
    out.set("gen.lateness_p99_us", acked.lateness.tail_ns(99.0).1 / 1e3);
    out.set("durable.checkpoints", acked.checkpoints as f64);

    if let (Some(tracing), Some(tw)) = (tracing.as_mut(), write_twins.take()) {
        let store = open(&dir, POLICY);
        let t = Instant::now();
        store.checkpoint().expect("checkpoint");
        out.set("durable.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
        drop(store);

        out.set(
            "durable.recover_ms_per_mb",
            recovery_s * 1e3 / (disk_bytes as f64 / 1e6),
        );
        out.set("durable.snapshot_bytes", snapshot_bytes as f64);
        out.set("durable.wal_bytes_at_close", wal_bytes_at_close as f64);
        out.set(
            "durable.wal_bytes_per_user_byte",
            acked.wal_bytes as f64 / acked.user_bytes.max(1) as f64,
        );
        out.set(
            "durable.checkpoint_stall_ms_max",
            acked.stall_max_ns as f64 / 1e6,
        );
        out.set(
            "durable.fsyncs_per_barrier",
            fsyncs as f64 / barriers.max(1) as f64,
        );
        let nofsync = tw
            .tracer
            .durations(None, "durable.append_apply")
            .median_ns();
        out.set("durable.append_apply_us", nofsync / 1e3);
        // Service times of the sampled inserts, not their waits in the
        // writer's schedule.
        let fsynced = tw.tracer.durations(None, "durable.insert_one").median_ns();
        out.set("durable.fsync_wait_us", (fsynced - nofsync).max(0.0) / 1e3);
        out.set(
            "docstore.insert_one_us",
            tw.tracer.durations(None, "docstore.insert_one").median_ns() / 1e3,
        );
        out.set(
            "docstore.update_one_us",
            tw.tracer.durations(None, "docstore.update_one").median_ns() / 1e3,
        );
        read_tally.records += tracing.tally.records;
        api::class_metrics(&mut out, &mut read_tally);
        api::layer_metrics(&mut out, tracing, &mut read_tally, Class::Lookup);
        read_tally.absorb(&tracing.tally);
        let mut tracer = std::mem::replace(&mut tracing.tracer, Tracer::new());
        tracer.absorb(tw.tracer);
        out.set("trace.spans", tracer.len() as f64);
        api::dump_spans(&mut out, cfg, &tracer, "ingest_mixed");
        drop(tw.nofsync);
        let _ = std::fs::remove_dir_all(&twin_dir);
    } else {
        let completed = read_tally.attempted - read_tally.failed;
        out.end_to_end(setup_s, &mut read_tally.all, TAIL_PCT, completed, wall_s);
        api::class_metrics(&mut out, &mut read_tally);
    }
    let _ = std::fs::remove_dir_all(&dir);

    out.attempted = acked.ops + read_tally.attempted + probe_errors;
    out.failed = acked.failed + read_tally.failed + lost + probe_errors;
    out.note(format!(
        "ingest_mixed: 1 closed-loop reader ({} lookups), 1 open-loop writer at {WRITE_RATE}/s ({} acked, {} checkpoints, max stall {:.1} ms, lateness p99 {:.1} us) over {} docs; {} lost after reopen",
        read_tally.attempted,
        acked.ops - acked.failed,
        acked.checkpoints,
        acked.stall_max_ns as f64 / 1e6,
        acked.lateness.tail_ns(99.0).1 / 1e3,
        corpus.records.len(),
        lost,
    ));
    out
}
