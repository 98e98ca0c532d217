//! `serve`: the repo's one end-to-end benchmark.
//!
//! Four workloads drive the system through its public functions only
//! (`MaterialsApi::{handle, structured_query}`, `QueryEngine`,
//! `Collection`, `DurableDatabase`, `LaunchPad`, `WorkPool::global()`),
//! validate every response against an oracle the harness computes
//! itself, and print every metric by name with its unit. See
//! `README.md` beside this file for the glossary and the sizes.
//!
//! ```text
//! serve --workload W --seed S --seconds N --trace 0|1   one workload, in this process
//! serve [--seed S] [--seconds N] [--trace 1] [--quick] [--out FILE]
//!                                                       every workload, each in a fresh child
//! serve stability --runs N [--seed S] [--seconds N]     run-to-run spread against the bounds
//! ```

mod api;
mod corpus;
mod explore;
mod host;
mod ingest;
mod portal;
mod queue;
mod stats;
mod trace;

use serde_json::{json, Map, Value};
use stats::Samples;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Default `--seed`: the paper's conference date.
const DEFAULT_SEED: u64 = 20_120_820;

/// Set-ups per untraced run, `setup_s` being their median: at least
/// `MIN`, then more while they have taken under `FILL_S` seconds in all
/// (a 60 ms set-up timed five times is too noisy to bound), up to `MAX`.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 25;
const SETUPS_FILL_S: f64 = 1.5;

/// (name, why). The names are fixed: later issues cite them.
const WORKLOADS: [(&str, &str); 4] = [
    (
        "portal_hot",
        "2 closed-loop clients, Zipf(1.0) over 128 request strings: the working set fits the 256-entry query cache, so scans do nothing and per-request overhead is everything",
    ),
    (
        "explore_scan",
        "1 client, every request distinct (range scan, 20 chemsys browses, 10k-row bulk pull per cycle): hit ratio ~0, so plan/scan/project and the morsel pool do the work",
    ),
    (
        "ingest_mixed",
        "fsync'd writes at a fixed 1500/s beside a closed-loop reader on one DurableDatabase: generation invalidation, FIFO eviction, WAL append, fsync wait, checkpoint stalls, then reopen and verify",
    ),
    (
        "workflow_queue",
        "2 workers in claim->report cycles through LaunchPad at READY depth ~2000: sorted find_one_and_update and the claim lock; API, cache and WAL do nothing",
    ),
];

/// (name, unit, better, bound): what a user of the system sees, on
/// every workload. `BENCHMARK.json` carries the same table; the smoke
/// test below keeps the two equal.
const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_us", "us", "lower", 0.25),
    ("op_tail_over_p50", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
];

/// (name, unit, better): per-class latencies and single-layer metrics,
/// the result line of the traced run. A metric a workload cannot measure
/// reads 0 there. The untraced run prints those of them it measures (the
/// class latencies and counts at the top) after its end-to-end rows.
const PER_LAYER: [(&str, &str, &str); 63] = [
    ("failed_ops_frac", "ratio", "lower"),
    ("lookup_p50_us", "us", "lower"),
    ("lookup_p99_us", "us", "lower"),
    ("collscan_p50_ms", "ms", "lower"),
    ("browse_p50_us", "us", "lower"),
    ("bulk_p50_ms", "ms", "lower"),
    ("write_ack_p50_us", "us", "lower"),
    ("write_ack_p99_us", "us", "lower"),
    ("recovery_s", "s", "lower"),
    ("disk_bytes_per_user_byte", "ratio", "lower"),
    ("claim_p50_us", "us", "lower"),
    ("claim_p99_us", "us", "lower"),
    ("mapi.admit_ns", "ns", "lower"),
    ("mapi.cache_hit_ns", "ns", "lower"),
    ("mapi.rest_self_us", "us", "lower"),
    ("mapi.rest_self_ns_per_record", "ns", "lower"),
    ("mapi.weblog_record_ns", "ns", "lower"),
    ("mapi.weblog_record_full_ns", "ns", "lower"),
    ("mapi.sanitize_us", "us", "lower"),
    ("mapi.lint_for_us", "us", "lower"),
    ("mapi.queryengine_self_us", "us", "lower"),
    ("mapi.cache_hit_ratio", "ratio", "higher"),
    ("mapi.cache_invalidations", "count", "lower"),
    ("mapi.cache_evictions", "count", "lower"),
    ("mapi.records_returned", "count", "higher"),
    ("docstore.find_id_us", "us", "lower"),
    ("docstore.find_index_us", "us", "lower"),
    ("docstore.find_collscan_ms", "ms", "lower"),
    ("docstore.collscan_ns_per_doc", "ns", "lower"),
    ("docstore.project_ns_per_match", "ns", "lower"),
    ("docstore.plan_us", "us", "lower"),
    ("docstore.candidates_per_returned", "ratio", "lower"),
    ("docstore.insert_one_us", "us", "lower"),
    ("docstore.update_one_us", "us", "lower"),
    ("docstore.find_one_and_update_us", "us", "lower"),
    ("exec.pool_size", "count", "higher"),
    ("exec.morsel_scatters", "count", "higher"),
    ("exec.morsels_claimed", "count", "higher"),
    ("exec.jobs_dispatched", "count", "higher"),
    ("exec.parallel_decision_frac", "ratio", "higher"),
    ("exec.per_item_ns", "ns", "lower"),
    ("exec.dispatch_overhead_ns", "ns", "lower"),
    ("durable.append_apply_us", "us", "lower"),
    ("durable.fsync_wait_us", "us", "lower"),
    ("durable.fsyncs_per_barrier", "ratio", "lower"),
    ("durable.wal_bytes_per_user_byte", "ratio", "lower"),
    ("durable.checkpoints", "count", "lower"),
    ("durable.checkpoint_stall_ms_max", "ms", "lower"),
    ("durable.checkpoint_ms", "ms", "lower"),
    ("durable.recover_ms_per_mb", "ms", "lower"),
    ("durable.snapshot_bytes", "bytes", "lower"),
    ("durable.wal_bytes_at_close", "bytes", "lower"),
    ("fireworks.claim_next_us", "us", "lower"),
    ("fireworks.report_us", "us", "lower"),
    ("fireworks.add_workflow_us_per_fw", "us", "lower"),
    ("fireworks.claim_depth_ratio", "ratio", "lower"),
    ("fireworks.claims_empty", "count", "lower"),
    ("gen.lateness_p99_us", "us", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.layer_sum_ratio", "ratio", "lower"),
    ("trace.spans", "count", "higher"),
    ("host.nproc", "count", "higher"),
    ("host.calib_ms", "ms", "lower"),
];

/// What one run of one workload is asked to do.
pub struct Config {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: fixed op counts, layer probes, per-layer metrics.
    pub trace: bool,
    /// Divides every size: 1 for real runs, 20 under `--quick`.
    pub scale: usize,
    /// Scratch space, beside the executable (inside the build directory).
    pub data_dir: PathBuf,
}

impl Config {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The end-to-end metrics every workload reports. `ops` holds one
    /// latency sample per completed, correct operation of the measured
    /// window. The tail, the `tail_pct`-th percentile, is reported as a
    /// multiple of the median: the host's speed, which moves by a third
    /// for minutes at a time, cancels out of it, so it moves when the
    /// tail does. A workload names a percentile that lies inside its slow
    /// class of operations however fast the host runs, never where one
    /// class ends and the next begins.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        ops: &mut Samples,
        tail_pct: f64,
        completed: u64,
        wall_s: f64,
    ) {
        self.set("setup_s", setup_s);
        self.set("ops_per_s", completed as f64 / wall_s);
        let median = ops.median_ns();
        self.set("op_p50_us", median / 1e3);
        let (pct, tail) = ops.tail_ns(tail_pct);
        self.set("op_tail_over_p50", tail / median.max(1.0));
        self.note(format!(
            "measured window {wall_s:.3} s, {completed} correct ops, {} latency samples, tail is p{pct:.2} = {:.3} us",
            ops.len(),
            tail / 1e3
        ));
    }
}

/// Run `prepare` then the set-up it returns several times (once in a
/// traced run), timing only the set-up: `prepare` is where the harness
/// generates inputs, the returned closure is the program loading them.
/// Returns the last system built and the median set-up time in seconds.
pub fn timed_setups<S, F: FnOnce() -> S>(cfg: &Config, mut prepare: impl FnMut() -> F) -> (S, f64) {
    let mut times = Vec::new();
    let mut system = None;
    loop {
        // Drop the previous build first, so peak memory is one system's.
        drop(system.take());
        let setup = prepare();
        let t = Instant::now();
        system = Some(setup());
        times.push(t.elapsed().as_secs_f64());
        let filled = times.len() >= SETUPS_MIN && times.iter().sum::<f64>() >= SETUPS_FILL_S;
        if cfg.trace || filled || times.len() >= SETUPS_MAX {
            break;
        }
    }
    (
        system.expect("at least one set-up round"),
        stats::median(times),
    )
}

struct Args {
    stability_runs: Option<usize>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        stability_runs: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    let mut stability = false;
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "stability" => stability = true,
            "--runs" => {
                args.stability_runs = Some(
                    value("--runs")?
                        .parse()
                        .map_err(|e| format!("--runs: {e}"))?,
                )
            }
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.iter().any(|(name, _)| *name == w) {
                    return Err(format!("unknown workload '{w}'"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("--out")?.into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if stability && args.stability_runs.is_none() {
        args.stability_runs = Some(3);
    }
    if !stability && args.stability_runs.is_some() {
        return Err("--runs belongs to `serve stability`".into());
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &Config) -> Outcome {
    let mut out = match name {
        "portal_hot" => portal::run(cfg),
        "explore_scan" => explore::run(cfg),
        "ingest_mixed" => ingest::run(cfg),
        "workflow_queue" => queue::run(cfg),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    };
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.set(
        "failed_ops_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if cfg.trace {
        out.set("host.nproc", host::nproc() as f64);
        out.set("host.calib_ms", host::calib_ms());
    }
    out
}

/// The names the result line of one run carries: end-to-end untraced,
/// per-layer traced.
fn names_for(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|(n, u, _, _)| (*n, *u)).collect()
    }
}

/// The rows one run prints: those of its result line, and after the
/// end-to-end metrics of an untraced run the per-class numbers and
/// counts it measured besides (the issue's end-to-end names that exist
/// on some workloads only, so cannot carry a bound in `BENCHMARK.json`).
fn rows(out: &Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    let value = |name| out.metrics.get(name).copied();
    let mut rows: Vec<_> = names_for(trace)
        .into_iter()
        .map(|(n, u)| (n, u, value(n).unwrap_or(0.0)))
        .collect();
    if !trace {
        rows.extend(
            PER_LAYER
                .iter()
                .filter_map(|(n, u, _)| Some((*n, *u, value(n)?))),
        );
    }
    rows
}

/// The result line the driver reads: last line of standard output.
fn result_line(out: &Outcome, trace: bool) -> Value {
    let mut metrics = Map::new();
    for (name, unit) in names_for(trace) {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        metrics.insert(name.into(), json!({"value": value, "unit": unit}));
    }
    json!({
        "correct": out.failed == 0 && out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    })
}

fn data_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    exe.parent()
        .expect("executable has a directory")
        .join("serve-data")
}

/// One workload in this process; prints every metric, then the result line.
fn run_here(name: &str, args: &Args) -> ExitCode {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick { 0.5 } else { 10.0 }),
        trace: args.trace,
        scale: if args.quick { 20 } else { 1 },
        data_dir: data_dir(),
    };
    std::fs::create_dir_all(&cfg.data_dir).expect("scratch directory beside the executable");
    let out = run_workload(name, &cfg);
    println!(
        "# {name} seed={} seconds={} trace={} scale=1/{}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.scale
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for (metric, unit, value) in rows(&out, cfg.trace) {
        println!("{metric:<36} {value:>16.4} {unit}");
    }
    let line = result_line(&out, cfg.trace);
    println!("{line}");
    if line["correct"] == true {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child printed: its result line and its metric rows.
struct ChildRun {
    line: Value,
    rows: Vec<(String, f64, String)>,
}

impl ChildRun {
    fn value(&self, metric: &str) -> f64 {
        self.rows
            .iter()
            .find(|(name, ..)| name == metric)
            .map_or(0.0, |row| row.1)
    }
}

/// Run one workload in a fresh child process, so `WorkPool::global()`,
/// the scan crossover's EWMA and `VmHWM` all start clean.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &args.seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or(format!("{name}: no output"))?;
    let line: Value =
        serde_json::from_str(last).map_err(|e| format!("{name}: bad result line: {e}"))?;
    if !output.status.success() || line["correct"] != true {
        return Err(format!(
            "{name}: failed={} attempted={}",
            line["failed"], line["attempted"]
        ));
    }
    // Metric rows are `name value unit`; notes start with `#`.
    let rows = stdout
        .lines()
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            let (metric, value, unit) = (fields.next()?, fields.next()?, fields.next()?);
            Some((metric.to_string(), value.parse().ok()?, unit.to_string()))
        })
        .collect();
    Ok(ChildRun { line, rows })
}

/// Every workload, each in its own child; prints every metric.
fn run_all(args: &Args) -> ExitCode {
    let mut results = Map::new();
    let mut ok = true;
    for trace in [false, true] {
        if trace && !args.trace {
            continue;
        }
        for (name, _) in WORKLOADS {
            match run_child(name, args, trace) {
                Ok(run) => {
                    println!(
                        "# {name} trace={} attempted={} failed={}",
                        u8::from(trace),
                        run.line["attempted"],
                        run.line["failed"]
                    );
                    // Replayed layers that overshoot their root by a tenth
                    // describe another path than the one the root took.
                    let overshoot = run.value("trace.layer_sum_ratio");
                    if trace && overshoot > 1.1 {
                        eprintln!("FAILED {name}: replayed layers sum to {overshoot:.3} of their root, over 1.1");
                        ok = false;
                    }
                    let mut printed = Map::new();
                    for (metric, v, unit) in &run.rows {
                        println!("{name:<15} {metric:<36} {v:>16.4} {unit}");
                        printed.insert(metric.clone(), json!({"value": v, "unit": unit}));
                    }
                    let mut line = run.line;
                    line["metrics"] = Value::Object(printed);
                    results.insert(format!("{name}/trace{}", u8::from(trace)), line);
                }
                Err(e) => {
                    eprintln!("FAILED {e}");
                    ok = false;
                }
            }
        }
    }
    if let Some(path) = &args.out {
        let doc = json!({"seed": args.seed, "quick": args.quick, "results": results});
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The full untraced set `runs` times; per end-to-end metric and
/// workload, (max − min) ÷ median against the metric's bound.
fn stability(args: &Args, runs: usize) -> ExitCode {
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for run in 0..runs {
        for (name, _) in WORKLOADS {
            match run_child(name, args, false) {
                Ok(run) => {
                    for (metric, ..) in END_TO_END {
                        values
                            .entry((name, metric))
                            .or_default()
                            .push(run.value(metric));
                    }
                }
                Err(e) => {
                    eprintln!("FAILED run {run}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let mut ok = true;
    println!(
        "{:<15} {:<14} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for ((name, metric), v) in &values {
        let bound = END_TO_END
            .iter()
            .find(|(n, ..)| n == metric)
            .map_or(0.0, |e| e.3);
        let med = stats::median(v.clone());
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
        let spread = if med > 0.0 {
            (hi - lo) / med
        } else {
            f64::INFINITY
        };
        let within = spread <= bound;
        ok &= within;
        println!(
            "{name:<15} {metric:<14} {med:>12.4} {spread:>9.4} {bound:>7.2}  {}",
            if within { "ok" } else { "EXCEEDS BOUND" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(2);
        }
    };
    match (&args.stability_runs, &args.workload) {
        (Some(runs), _) => stability(&args, *runs),
        (None, Some(name)) => run_here(name, &args),
        (None, None) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root, two levels above `mp-bench`.
    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("readable BENCHMARK.json");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn quick_run_emits_exactly_what_benchmark_json_declares() {
        let bench = benchmark_json();
        let declared_workloads: Vec<&str> = bench["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(declared_workloads, WORKLOADS.map(|(n, _)| n));
        for (w, (_, why)) in bench["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(w["why"], why);
        }
        let declared = |section: &str| -> Vec<(String, String, String)> {
            bench[section]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m[k].as_str().expect("string field").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let own = |n: &str, u: &str, b: &str| (n.to_string(), u.to_string(), b.to_string());
        assert_eq!(
            declared("end_to_end"),
            END_TO_END.map(|(n, u, b, _)| own(n, u, b))
        );
        assert_eq!(
            declared("per_layer"),
            PER_LAYER.map(|(n, u, b)| own(n, u, b))
        );
        for (m, (.., bound)) in bench["end_to_end"]
            .as_array()
            .expect("list")
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m["bound"].as_f64(), Some(bound));
        }

        let scratch = data_dir().join(format!("smoke-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("scratch directory");
        let run = |name: &str, trace: bool| {
            let cfg = Config {
                seed: DEFAULT_SEED,
                seconds: 0.3,
                trace,
                scale: 20,
                data_dir: scratch.clone(),
            };
            let out = run_workload(name, &cfg);
            assert_eq!(out.failed, 0, "{name} trace={trace}: {:?}", out.notes);
            assert!(out.attempted > 0);
            out
        };
        for trace in [false, true] {
            for (name, _) in WORKLOADS {
                let out = run(name, trace);
                let line = result_line(&out, trace);
                let emitted: Vec<&String> = line["metrics"]
                    .as_object()
                    .expect("metrics")
                    .keys()
                    .collect();
                let want: Vec<&str> = names_for(trace).iter().map(|(n, _)| *n).collect();
                assert_eq!(emitted, want);
                if !trace {
                    for (metric, ..) in END_TO_END {
                        assert!(
                            out.metrics.get(metric).is_some_and(|v| *v > 0.0),
                            "{name}: {metric} must never be 0"
                        );
                    }
                }
                // Every metric a workload reports is a declared one.
                for metric in out.metrics.keys() {
                    assert!(
                        END_TO_END.iter().any(|e| e.0 == *metric)
                            || PER_LAYER.iter().any(|p| p.0 == *metric),
                        "{name} reports undeclared metric {metric}"
                    );
                }
            }
        }
        // Fixed op counts: the same seed returns the same records.
        for name in ["portal_hot", "explore_scan"] {
            let records = |out: &Outcome| out.metrics["mapi.records_returned"];
            assert_eq!(
                records(&run(name, true)),
                records(&run(name, true)),
                "{name}"
            );
        }
        let _ = std::fs::remove_dir_all(scratch);
    }
}
