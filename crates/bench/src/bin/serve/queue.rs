//! `workflow_queue`: the task-queue role. Two workers run claim→report
//! cycles through `LaunchPad::{claim_next, report}` with the paper's
//! job-selection filters (`spec.elements` `$all`), chain and fan-out
//! workflows, 10 % duplicate binders, and the READY depth held near
//! 2,000 by `add_workflow` top-ups. Dominated by the sorted
//! `find_one_and_update`, update operators and the claim lock; the API,
//! the query cache and the WAL do nothing.

use crate::corpus::{rng_for, stream};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{api, timed_setups, Config, Outcome};
use mp_docstore::{Database, FindOptions, SortDir};
use mp_fireworks::{Binder, Firework, LaunchPad, LaunchReport, ReportOutcome, Stage, Workflow};
use rand::rngs::StdRng;
use rand::Rng;
use serde_json::{json, Value};
use std::collections::BTreeSet;
use std::time::Instant;

/// Each worker selects on its own element pair, so each owns a lane.
const LANES: [[&str; 2]; 2] = [["Li", "O"], ["Na", "O"]];
const THIRD: [&str; 8] = ["Co", "Fe", "Mn", "Ni", "P", "S", "Ti", "V"];
const STAGES: [&str; 4] = ["relax", "static", "bands", "dos"];
/// Workflows queued per lane. A workflow's fireworks are claimed soon
/// after its root (lower document ids sort first), so READY depth is
/// about one per queued workflow: 2 x 1,000 = 2,000.
const BACKLOG: usize = 1_000;
/// One workflow in ten repeats the structure submitted this many
/// workflows earlier in its lane: every firework of it is a duplicate
/// binder and is archived with a pointer, not run.
const DUP_LAG: usize = 100;
/// Traced run: cycles per worker, and claims probed on each twin pad.
const TRACED_CYCLES: u64 = 1_500;
const TWIN_PROBES: usize = 256;

/// One worker's submission stream and bookkeeping.
struct Lane {
    lane: usize,
    rng: StdRng,
    structures: Vec<String>,
    /// Cycles the queued workflows still owe (duplicates owe none).
    owed: usize,
    claimed: BTreeSet<String>,
}

impl Lane {
    fn new(seed: u64, lane: usize) -> Lane {
        Lane {
            lane,
            rng: rng_for(seed, stream::QUEUE, lane as u64),
            structures: Vec::new(),
            owed: 0,
            claimed: BTreeSet::new(),
        }
    }

    fn worker(&self) -> String {
        format!("worker-{}", self.lane)
    }

    fn filter(&self) -> Value {
        json!({"spec.elements": {"$all": LANES[self.lane]}})
    }

    /// The next workflow of this lane: four fireworks, a chain or a
    /// fan-out, all on one structure.
    fn next_workflow(&mut self) -> Workflow {
        let n = self.structures.len();
        let duplicate = n >= DUP_LAG && self.rng.gen_range(0..10u32) == 0;
        let structure = if duplicate {
            self.structures[n - DUP_LAG].clone()
        } else {
            self.owed += STAGES.len();
            format!("s-{}-{n}", self.lane)
        };
        self.structures.push(structure.clone());
        let [a, b] = LANES[self.lane];
        let elements = [a, b, THIRD[self.rng.gen_range(0..THIRD.len())]];
        let chain = self.rng.gen_bool(0.5);
        let id = |stage: usize| format!("fw-{}-{n}-{}", self.lane, STAGES[stage]);
        let fireworks = (0..STAGES.len())
            .map(|stage| {
                let spec = json!({
                    "elements": elements,
                    "structure": structure,
                    "stage": STAGES[stage],
                    "nelectrons": self.rng.gen_range(8..400u32),
                });
                let fw = Firework::new(id(stage), STAGES[stage], Stage(spec))
                    .with_binder(Binder::new(structure.clone(), STAGES[stage]));
                match stage {
                    0 => fw,
                    _ if chain => fw.after(&id(stage - 1)),
                    _ => fw.after(&id(0)),
                }
            })
            .collect();
        Workflow::new(format!("wf-{}-{n}", self.lane), fireworks)
            .expect("generated workflows are valid")
    }

    /// Submit workflows until `backlog` workflows' worth of cycles is
    /// owed; returns (fireworks added, ns spent in `add_workflow`).
    fn top_up(&mut self, pad: &LaunchPad, backlog: usize) -> (u64, u64) {
        let (mut fireworks, mut ns) = (0, 0);
        while self.owed < backlog * STAGES.len() {
            let wf = self.next_workflow();
            let t = Instant::now();
            pad.add_workflow(&wf)
                .expect("generated workflows pass the lint gate");
            ns += t.elapsed().as_nanos() as u64;
            fireworks += wf.fireworks.len() as u64;
        }
        (fireworks, ns)
    }
}

/// A launchpad with `backlog` workflows queued in each lane.
fn build(seed: u64, backlog: usize) -> (LaunchPad, Vec<Lane>) {
    let pad = LaunchPad::new(Database::new()).expect("fresh launchpad");
    let mut lanes: Vec<Lane> = (0..LANES.len()).map(|l| Lane::new(seed, l)).collect();
    for lane in &mut lanes {
        lane.top_up(&pad, backlog);
    }
    (pad, lanes)
}

#[derive(Default)]
struct WorkerTally {
    cycles: u64,
    failed: u64,
    claims_empty: u64,
    claim: Samples,
    report: Samples,
    cycle: Samples,
    added_fireworks: u64,
    add_ns: u64,
}

/// One worker: claim, check, report, top up — until `stop(cycles)`.
fn worker(
    pad: &LaunchPad,
    lane: &mut Lane,
    backlog: usize,
    stop: &(dyn Fn(u64) -> bool + Sync),
) -> WorkerTally {
    let mut tally = WorkerTally::default();
    let (filter, name) = (lane.filter(), lane.worker());
    while !stop(tally.cycles + tally.failed) {
        let t = Instant::now();
        let claimed = pad.claim_next(&filter, &name);
        let claim_ns = t.elapsed().as_nanos() as u64;
        let doc = match claimed {
            Ok(Some(doc)) => doc,
            // Work is owed in this lane, so an empty claim is a miss.
            Ok(None) | Err(_) => {
                tally.claims_empty += 1;
                tally.failed += 1;
                continue;
            }
        };
        let fw_id = doc["_id"].as_str().unwrap_or_default().to_string();
        let elements = doc["spec"]["elements"].as_array();
        let selected = LANES[lane.lane]
            .iter()
            .all(|e| elements.is_some_and(|els| els.iter().any(|x| x == e)));
        let fresh = lane.claimed.insert(fw_id.clone());
        let valid =
            selected && fresh && doc["state"] == "RUNNING" && doc["worker"] == name.as_str();
        let task_doc = json!({"output": {"energy": -(tally.cycles as f64) / 8.0, "stage": doc["spec"]["stage"]}});
        let t = Instant::now();
        let outcome = pad.report(&fw_id, LaunchReport::Success { task_doc });
        let report_ns = t.elapsed().as_nanos() as u64;
        if valid && matches!(outcome, Ok(ReportOutcome::Completed)) {
            tally.cycles += 1;
            tally.claim.push(claim_ns);
            tally.report.push(report_ns);
            tally.cycle.push(claim_ns + report_ns);
        } else {
            tally.failed += 1;
        }
        lane.owed = lane.owed.saturating_sub(1);
        let (fireworks, ns) = lane.top_up(pad, backlog);
        tally.added_fireworks += fireworks;
        tally.add_ns += ns;
    }
    tally
}

/// Median uncontended `claim_next` on a twin pad queued `backlog` deep
/// per lane; each claimed firework is released again, so the depth
/// holds. On the first lane's claims the same sorted find-and-modify is
/// also issued straight at the twin's `engines` collection. Returns the
/// median and how many probe calls went wrong.
fn probe_twin(seed: u64, backlog: usize, tracer: &mut Tracer, class: &'static str) -> (f64, u64) {
    let (pad, lanes) = build(seed, backlog);
    let engines = pad.database().collection("engines");
    let lane = &lanes[0];
    let (filter, name) = (lane.filter(), lane.worker());
    let mut raw_filter = filter.clone();
    raw_filter["state"] = json!("READY");
    let update = json!({"$set": {"state": "RUNNING", "worker": name}, "$inc": {"launches": 1}});
    let undo = json!({"$set": {"state": "READY", "worker": null}, "$inc": {"launches": -1}});
    let sort = FindOptions::all().sort_by("launches", SortDir::Asc);
    let mut errors = 0;
    for i in 0..TWIN_PROBES as u64 {
        let (root, claimed) = tracer.span("fireworks.claim_next", class, i, None, || {
            pad.claim_next(&filter, &name)
        });
        let released = claimed.ok().flatten().is_some_and(|doc| {
            let fw_id = doc["_id"].as_str().unwrap_or_default();
            pad.report(
                fw_id,
                LaunchReport::Release {
                    reason: "probe".into(),
                },
            )
            .is_ok()
        });
        let (_, raw) = tracer.span("docstore.find_one_and_update", class, i, Some(root), || {
            engines.find_one_and_update(&raw_filter, &update, Some(&sort), true)
        });
        let undone = raw.ok().flatten().is_some_and(|doc| {
            engines
                .update_one(&json!({"_id": doc["_id"]}), &undo)
                .is_ok()
        });
        errors += u64::from(!released) + u64::from(!undone);
    }
    (
        tracer
            .durations(Some(class), "fireworks.claim_next")
            .median_ns(),
        errors,
    )
}

pub fn run(cfg: &Config) -> Outcome {
    let backlog = (BACKLOG / cfg.scale).max(DUP_LAG + 20);
    let ((pad, mut lanes), setup_s) = timed_setups(cfg, || || build(cfg.seed, backlog));
    let traced_cycles = TRACED_CYCLES / cfg.scale as u64;
    let t = Instant::now();
    let stop = |done: u64| {
        if cfg.trace {
            done >= traced_cycles
        } else {
            t.elapsed() >= cfg.window()
        }
    };
    let mut tallies: Vec<WorkerTally> = std::thread::scope(|s| {
        let workers: Vec<_> = lanes
            .iter_mut()
            .map(|lane| s.spawn(|| worker(&pad, lane, backlog, &stop)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker thread"))
            .collect()
    });
    let wall_s = t.elapsed().as_secs_f64();

    let mut total = WorkerTally::default();
    for w in &mut tallies {
        total.cycles += w.cycles;
        total.failed += w.failed;
        total.claims_empty += w.claims_empty;
        total.added_fireworks += w.added_fireworks;
        total.add_ns += w.add_ns;
        total.claim.extend(&w.claim);
        total.report.extend(&w.report);
        total.cycle.extend(&w.cycle);
    }
    // Oracle: one task per completed cycle, and as many COMPLETED
    // fireworks — counted by the harness, checked against the store.
    let tasks = pad.database().collection("tasks").len() as u64;
    let completed = pad
        .state_counts()
        .ok()
        .and_then(|counts| counts.into_iter().find(|(state, _)| state == "COMPLETED"))
        .map_or(0, |(_, n)| n as u64);
    let ready = pad
        .database()
        .collection("engines")
        .count(&json!({"state": "READY"}))
        .unwrap_or(0);
    let miscounted = tasks.abs_diff(total.cycles) + completed.abs_diff(total.cycles);

    let mut out = Outcome::default();
    out.set("claim_p50_us", total.claim.median_ns() / 1e3);
    out.set("claim_p99_us", total.claim.tail_ns(99.0).1 / 1e3);
    let mut probe_errors = 0;
    if cfg.trace {
        let mut tracer = Tracer::new();
        let mut probe = |backlog: usize, class: &'static str| {
            let (median, errors) = probe_twin(cfg.seed, backlog, &mut tracer, class);
            probe_errors += errors;
            median
        };
        let at_depth = probe(backlog, "claim");
        let deep = probe(backlog * 2, "claim_deep");
        let shallow = probe(backlog / 4, "claim_shallow");
        out.set("fireworks.claim_next_us", at_depth / 1e3);
        out.set("fireworks.report_us", total.report.median_ns() / 1e3);
        out.set(
            "fireworks.add_workflow_us_per_fw",
            total.add_ns as f64 / 1e3 / total.added_fireworks.max(1) as f64,
        );
        out.set(
            "fireworks.claim_depth_ratio",
            if shallow > 0.0 { deep / shallow } else { 0.0 },
        );
        out.set("fireworks.claims_empty", total.claims_empty as f64);
        out.set(
            "docstore.find_one_and_update_us",
            tracer
                .durations(Some("claim"), "docstore.find_one_and_update")
                .median_ns()
                / 1e3,
        );
        out.set(
            "trace.layer_sum_ratio",
            tracer.layer_sum_ratio("claim", "fireworks.claim_next"),
        );
        out.set("trace.spans", tracer.len() as f64);
        api::dump_spans(&mut out, cfg, &tracer, "workflow_queue");
    } else {
        out.end_to_end(setup_s, &mut total.cycle, 99.0, total.cycles, wall_s);
    }
    out.attempted = total.cycles + total.failed + probe_errors;
    out.failed = total.failed + miscounted + probe_errors;
    out.note(format!(
        "workflow_queue: {} workers, {} cycles, {} fireworks added, {backlog} workflows queued per lane, READY depth {ready} at the end",
        LANES.len(),
        total.cycles,
        total.added_fireworks,
    ));
    out
}
