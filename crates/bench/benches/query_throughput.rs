//! Throughput comparison for the read-path execution strategies:
//! collection scan vs index probe vs projected scan vs query-cache hit,
//! and sequential vs pooled scatter-gather across shards.
//!
//! The benchmark runs as a driver/child pair so a single invocation can
//! record multiple worker-count series: `WorkPool::global()` is sized
//! once per process from `MP_EXEC_WORKERS`, so each series needs its own
//! process. The driver (default mode) re-execs this binary once with
//! `MP_EXEC_WORKERS=1` and — when the host or an inherited
//! `MP_EXEC_WORKERS` allows more than one worker — once at the
//! multi-worker count, merges the series, derives per-scale `speedup`
//! ratios (1-worker time / multi-worker time), writes `BENCH_query.json`
//! at the repo root, and enforces the perf-smoke gates. A child
//! (`MP_BENCH_CHILD=1`) runs the scale suite at its inherited pool size
//! and prints one series as JSON on stdout.
//!
//! Perf-smoke gates, applied to every series:
//!
//! * a steady-state cache hit must be faster than the uncached engine
//!   read, and must not scale with corpus size (the large scale may cost
//!   at most 2x the small one — hits return a shared `Arc` result set,
//!   so their cost is key hashing, not result materialization);
//! * the uncached engine read must cost at most 1.15x the equivalent
//!   raw collection scan (the engine's sanitize/cache/copy overhead
//!   must stay in the noise now that result sets are shared);
//! * at 100k documents, a projected scan must cost at most 1.3x the
//!   unprojected scan (the projection is compiled once per query and
//!   fused into the scan, so per-match work is trie traversal plus
//!   output materialization — not path re-splitting over a separate
//!   pass, which once made projection 2.5x slower; the JSON also
//!   reports `proj_overhead_per_match_us`, the selectivity-free
//!   per-document materialization cost);
//! * at 100k documents the sharded read must *win*: with >= 4 effective
//!   execution slots (pool workers capped by host parallelism) the
//!   scatter must cost at most 0.8x the sequential per-shard iteration;
//!   with 2-3 slots it must not lose outright; a single slot cannot
//!   overlap shards at all, so there the gate bounds pure dispatch
//!   overhead at 15% instead of demanding an impossible win.
//!
//! Cache hits are measured two ways per rep: `cache_hit_us` is the
//! steady-state per-hit cost over a 16-hit burst, and
//! `cache_hit_cold_us` is the first hit issued right after a full
//! collection scan evicted the CPU cache — that one is dominated by
//! cache refill and scales weakly with corpus size, so it is recorded
//! for context but not gated.
//!
//! Usage: `cargo bench --bench query_throughput [-- --quick]`
//! `--quick` shrinks the document counts for CI smoke runs.

use mp_docstore::shard::ShardedCluster;
use mp_docstore::{Database, FindOptions};
use mp_exec::WorkPool;
use mp_mapi::QueryEngine;
use serde_json::{json, Value};
use std::process::Command;
use std::time::Instant;

const SHARDS: usize = 4;
const HIT_BURST: u32 = 16;

fn mat_doc(i: usize) -> Value {
    let els = ["Li", "Na", "Fe", "Co", "Ni", "Mn", "O", "S", "P", "F"];
    let e1 = els[i % els.len()];
    let e2 = els[(i * 3 + 1) % els.len()];
    json!({
        "_id": format!("mp-{i}"),
        "formula": format!("{e1}{e2}{}", i % 7 + 1),
        "chemsys": format!("{e1}-{e2}"),
        "elements": [e1, e2],
        "nsites": i % 100 + 2,
        "output": {"energy_per_atom": -((i % 9) as f64) - 1.0,
                   "band_gap": (i % 50) as f64 / 10.0},
    })
}

fn populate(n: usize) -> Database {
    let db = Database::new();
    let mats = db.collection("materials");
    mats.create_index("chemsys", false).unwrap();
    for i in 0..n {
        mats.insert_one(mat_doc(i)).unwrap();
    }
    db.profiler().set_enabled(false);
    db
}

fn populate_cluster(n: usize) -> ShardedCluster {
    let cluster = ShardedCluster::new(SHARDS, "chemsys");
    for i in 0..n {
        cluster.insert_one("materials", mat_doc(i)).unwrap();
    }
    for s in 0..cluster.num_shards() {
        cluster.shard(s).profiler().set_enabled(false);
    }
    cluster
}

/// Wall time of one run of `f`, in microseconds.
fn time_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// Median of a sample set, in place.
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn bench_scale(n: usize, reps: usize) -> Value {
    let db = populate(n);
    let mats = db.collection("materials");

    // Full scan: range on an unindexed field. The cut selects ~2% of
    // the collection — the hit rate of a typical Materials API range
    // query — so the projected-read comparison below measures
    // per-document projection overhead against the scan, not the raw
    // allocator throughput of materializing a fifth of the collection.
    let collscan_filter = json!({"nsites": {"$gte": 100}});

    // Index probe: equality on the indexed shard key. (The generator
    // pairs Fe with S: every tenth document lands in this chemsys.)
    let index_filter = json!({"chemsys": "Fe-S"});

    // Projected scan: same filter, but only two fields come back. The
    // projection is compiled once per query and pushed down into the
    // scan (each match is projected in the pass that matched it), so
    // the extra cost over the unprojected scan is only the
    // materialization of the matched output documents.
    let projection = FindOptions::all().project(&["formula", "output.band_gap"]);
    let matched = mats.find(&collscan_filter).unwrap().len();

    // Cached engine read: prime once before the rep loop so every
    // in-loop probe hits.
    let primed = QueryEngine::new(db.clone());
    primed
        .query("materials", &collscan_filter, &[], None)
        .unwrap();

    let cluster = populate_cluster(n);

    // One rep measures every operation back to back, and each metric is
    // the median over reps of its own slice. Ratio gates compare
    // metrics against each other, so the samples must interleave: on a
    // shared host, a slow phase that lands entirely on one metric's
    // measurement block would skew every ratio it appears in, while
    // interleaved samples drift together and the ratios hold.
    let mut t_scan = Vec::with_capacity(reps);
    let mut t_index = Vec::with_capacity(reps);
    let mut t_proj = Vec::with_capacity(reps);
    let mut t_count = Vec::with_capacity(reps);
    let mut t_miss = Vec::with_capacity(reps);
    let mut t_hit_cold = Vec::with_capacity(reps);
    let mut t_hit = Vec::with_capacity(reps);
    let mut t_seq = Vec::with_capacity(reps);
    let mut t_scatter = Vec::with_capacity(reps);
    for _ in 0..reps {
        t_scan.push(time_us(|| {
            assert!(!mats.find(&collscan_filter).unwrap().is_empty());
        }));
        t_index.push(time_us(|| {
            assert!(!mats.find(&index_filter).unwrap().is_empty());
        }));
        t_proj.push(time_us(|| {
            assert!(!mats
                .find_with(&collscan_filter, &projection)
                .unwrap()
                .is_empty());
        }));
        t_count.push(time_us(|| {
            assert!(mats.count(&collscan_filter).unwrap() > 0);
        }));
        // Uncached engine read: a fresh engine each rep keeps the cache
        // cold.
        t_miss.push(time_us(|| {
            let qe = QueryEngine::new(db.clone());
            assert!(!qe
                .query("materials", &collscan_filter, &[], None)
                .unwrap()
                .is_empty());
        }));
        // The miss above just walked the whole collection, evicting the
        // cache lines the hit path touches — so the first primed-engine
        // probe after it is a genuinely cold hit. The burst that follows
        // measures the steady-state per-hit cost.
        t_hit_cold.push(time_us(|| {
            let fetched = primed
                .query_cached("materials", &collscan_filter, &[], None)
                .unwrap();
            assert!(fetched.cached && !fetched.entry.is_empty());
        }));
        t_hit.push(
            time_us(|| {
                for _ in 0..HIT_BURST {
                    let fetched = primed
                        .query_cached("materials", &collscan_filter, &[], None)
                        .unwrap();
                    assert!(fetched.cached && !fetched.entry.is_empty());
                }
            }) / f64::from(HIT_BURST),
        );
        // Sequential shard iteration (the pre-pool router: re-parse +
        // full find on every shard, one after another) vs the pooled
        // scatter.
        t_seq.push(time_us(|| {
            let mut out = Vec::new();
            for s in 0..cluster.num_shards() {
                out.extend(
                    cluster
                        .shard(s)
                        .collection("materials")
                        .find(&collscan_filter)
                        .unwrap(),
                );
            }
            assert!(!out.is_empty());
        }));
        t_scatter.push(time_us(|| {
            assert!(!cluster
                .find("materials", &collscan_filter)
                .unwrap()
                .is_empty());
        }));
    }
    let collscan_us = median(t_scan);
    let find_projected_us = median(t_proj);

    json!({
        "docs": n,
        "collscan_us": collscan_us,
        "index_us": median(t_index),
        "find_projected_us": find_projected_us,
        "count_us": median(t_count),
        // Materialization cost per matched document, independent of the
        // filter's selectivity — the selectivity-free view of the
        // projection cliff (the seed paid ~1.5us/match re-splitting
        // paths per document; the compiled + fused path is sub-micro).
        "matched": matched,
        "proj_overhead_per_match_us": (find_projected_us - collscan_us).max(0.0)
            / matched.max(1) as f64,
        "cache_miss_us": median(t_miss),
        "cache_hit_us": median(t_hit),
        "cache_hit_cold_us": median(t_hit_cold),
        "shard_seq_us": median(t_seq),
        "shard_scatter_us": median(t_scatter),
    })
}

/// Child mode: run the scale suite at the inherited pool size and print
/// one series as JSON on stdout (progress goes to stderr so stdout stays
/// machine-readable).
fn run_child(quick: bool) {
    let scales: &[usize] = if quick {
        &[2_000, 100_000]
    } else {
        &[10_000, 100_000]
    };
    let reps = if quick { 9 } else { 15 };
    let workers = WorkPool::global().size();

    let mut results = Vec::new();
    for &n in scales {
        eprintln!("  [workers={workers}] scale {n} ...");
        results.push(bench_scale(n, reps));
    }
    let stats = WorkPool::global().stats();
    let series = json!({
        "pool_workers": workers,
        "reps": reps,
        // Dispatch accounting for the whole series: proves which fan-out
        // path (classic scatter vs morsel) actually ran.
        "pool_stats": {
            "scatters": stats.scatters,
            "jobs_dispatched": stats.jobs_dispatched,
            "morsel_scatters": stats.morsel_scatters,
            "morsel_runners": stats.morsel_runners,
            "morsels_claimed": stats.morsels_claimed,
        },
        "scales": results,
    });
    println!("{series}");
}

/// Re-exec this binary as a single-series child at the given pool size.
fn spawn_series(quick: bool, workers: usize) -> Value {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .env("MP_BENCH_CHILD", "1")
        .env("MP_EXEC_WORKERS", workers.to_string())
        .output()
        .expect("spawn bench child");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        out.status.success(),
        "bench child (workers={workers}) exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("child stdout is UTF-8");
    serde_json::from_str(stdout.trim()).expect("child series JSON")
}

/// Gates applied to one recorded series; returns failure messages.
fn check_series(series: &Value, host_parallelism: usize) -> Vec<String> {
    let workers = series["pool_workers"].as_u64().unwrap() as usize;
    // Effective execution slots: a 4-worker pool on a 1-way host still
    // executes one chunk at a time, so gates that demand a parallel win
    // key off the slot count, mirroring the executor's own crossover.
    let slots = workers.max(1).min(host_parallelism.max(1));
    let mut failures = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            failures.push(format!("[workers={workers}] {msg}"));
        }
    };

    let scales = series["scales"].as_array().unwrap();
    for scale in scales {
        let docs = scale["docs"].as_u64().unwrap();
        let hit = scale["cache_hit_us"].as_f64().unwrap();
        let miss = scale["cache_miss_us"].as_f64().unwrap();
        let scan = scale["collscan_us"].as_f64().unwrap();
        let projected = scale["find_projected_us"].as_f64().unwrap();
        let seq = scale["shard_seq_us"].as_f64().unwrap();
        let scatter = scale["shard_scatter_us"].as_f64().unwrap();

        // A steady-state cache hit must beat the uncached read.
        check(
            hit < miss,
            format!(
                "cache hit ({hit:.2}us) not faster than uncached read ({miss:.1}us) at {docs} docs"
            ),
        );
        // A cache miss is the scan plus engine overhead (sanitize, key
        // build, result registration). Shared result sets make that
        // overhead per-result-set, not per-document: bound it at 15%.
        check(
            miss <= scan * 1.15,
            format!("uncached engine read ({miss:.1}us) exceeds 1.15x the equivalent collection scan ({scan:.1}us) at {docs} docs"),
        );
        // The projection cliff gate: at collection scale, projecting
        // two fields may cost at most 30% over returning the shared
        // Arcs unprojected. The margin covers the unavoidable per-result
        // output materialization plus the measured run-to-run wobble of
        // the scan baseline itself (the unprojected scan is cache-layout
        // bound and swings ~20% between processes, while the projected
        // scan is materialization bound and stable); the regression this
        // guards against — per-document path re-splitting — costs 2.5x,
        // far outside the margin.
        if docs >= 100_000 {
            check(
                projected <= scan * 1.3,
                format!("projected scan ({projected:.1}us) exceeds 1.3x the unprojected collection scan ({scan:.1}us) at {docs} docs"),
            );
            // The scatter gate scales with the slots actually available:
            // >= 4 slots must win by 20%, 2-3 slots must not lose, and a
            // single slot only pays bounded dispatch overhead.
            let (bound, label) = if slots >= 4 {
                (seq * 0.8, "0.8x")
            } else if slots > 1 {
                (seq, "1.0x")
            } else {
                (seq * 1.15, "1.15x")
            };
            check(
                scatter <= bound,
                format!("pooled scatter ({scatter:.1}us) vs sequential shard iteration ({seq:.1}us) at {docs} docs exceeds the {slots}-slot bound ({label} = {bound:.1}us)"),
            );
        }
    }

    // Steady-state hits must be O(1) in corpus size: the large scale may
    // cost at most 2x the small one, plus a 0.2us floor so timer noise
    // on sub-microsecond samples cannot flake the gate.
    let (first, last) = (&scales[0], &scales[scales.len() - 1]);
    let hit_small = first["cache_hit_us"].as_f64().unwrap();
    let hit_big = last["cache_hit_us"].as_f64().unwrap();
    check(
        hit_big <= hit_small * 2.0 + 0.2,
        format!(
            "cache hit scales with corpus size: {hit_small:.2}us at {} docs -> {hit_big:.2}us at {} docs",
            first["docs"], last["docs"]
        ),
    );

    failures
}

/// Per-scale speedup of the multi-worker series over the 1-worker one
/// (ratio > 1 means the multi-worker run was faster).
fn speedup_rows(seq: &Value, multi: &Value) -> Vec<Value> {
    let ratio = |key: &str, s: &Value, m: &Value| {
        let a = s[key].as_f64().unwrap();
        let b = m[key].as_f64().unwrap();
        if b > 0.0 {
            (a / b * 100.0).round() / 100.0
        } else {
            1.0
        }
    };
    seq["scales"]
        .as_array()
        .unwrap()
        .iter()
        .zip(multi["scales"].as_array().unwrap())
        .map(|(s, m)| {
            assert_eq!(s["docs"], m["docs"], "series scale mismatch");
            json!({
                "docs": s["docs"],
                "collscan": ratio("collscan_us", s, m),
                "find_projected": ratio("find_projected_us", s, m),
                "count": ratio("count_us", s, m),
                "shard_scatter": ratio("shard_scatter_us", s, m),
            })
        })
        .collect()
}

fn main() {
    // Under `cargo bench`, harness=false binaries still receive
    // criterion-style flags; only `--quick` is ours.
    let quick = std::env::args().any(|a| a == "--quick");

    if std::env::var("MP_BENCH_CHILD").is_ok() {
        run_child(quick);
        return;
    }

    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    // An inherited MP_EXEC_WORKERS pins the multi-worker series (the CI
    // matrix leg sets 4); MP_EXEC_WORKERS=1 drops it entirely; otherwise
    // default to at least 4 workers so the morsel path is exercised even
    // on narrow hosts.
    let multi_workers = match std::env::var("MP_EXEC_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(w) if w > 1 => Some(w),
        Some(_) => None,
        None => Some(host_parallelism.max(4)),
    };
    eprintln!(
        "query_throughput driver on a {host_parallelism}-way host: series at 1{} worker(s)",
        multi_workers.map_or(String::new(), |w| format!(" and {w}"))
    );

    let seq_series = spawn_series(quick, 1);
    let multi_series = multi_workers.map(|w| spawn_series(quick, w));

    let mut failures = check_series(&seq_series, host_parallelism);
    let mut series = vec![seq_series];
    let mut speedup = Vec::new();
    if let Some(multi) = multi_series {
        failures.extend(check_series(&multi, host_parallelism));
        speedup = speedup_rows(&series[0], &multi);
        series.push(multi);
    }

    let report = json!({
        "bench": "query_throughput",
        "mode": if quick { "quick" } else { "full" },
        "shards": SHARDS,
        "host_parallelism": host_parallelism,
        "series": series,
        "speedup": speedup,
    });

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json");
    std::fs::write(out, serde_json::to_string_pretty(&report).unwrap() + "\n").unwrap();
    println!("{}", serde_json::to_string_pretty(&report).unwrap());

    if !failures.is_empty() {
        eprintln!("PERF GATES FAILED:");
        for f in &failures {
            eprintln!("  FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "ok: cache hits beat uncached reads and stay O(1) across scales, misses \
         stay within 1.15x of the raw scan, projection stays within 1.3x, and \
         scatter holds its slot-count bound at 100k docs"
    );
}
