//! The integrated Materials Project system (Fig. 2): one datastore
//! serving parallel computation, data analytics, data V&V, and data
//! dissemination at once.

use crate::assembler::{assemble, make_spec};
use crate::loading::{DataLoader, StagedResult};
use mp_dft::{actual_demand, Incar, RunStatus};
use mp_docstore::{Database, Result, StoreError};
use mp_fireworks::{Binder, Firework, LaunchPad, LaunchReport, Stage, Workflow};
use mp_hpcsim::{
    run_farm, summarize, BatchConfig, BatchSimulator, ClusterSpec, FarmTask, JobEnd, JobRequest,
    NetworkPolicy, Reservation,
};
use mp_matsci::{Element, IcsdGenerator, MpsRecord};
use serde_json::{json, Value};

/// How calculations are packed onto the batch system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionMode {
    /// One batch job per calculation (baseline).
    OneJobPerCalc,
    /// Task farming: many calculations per batch allocation (§IV-A1).
    TaskFarming {
        /// Calculations packed per farm job.
        tasks_per_farm: usize,
    },
}

/// End-to-end campaign accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// Scheduling rounds executed.
    pub rounds: usize,
    /// Batch jobs submitted (farms count once).
    pub batch_jobs: usize,
    /// Calculations that produced a converged task.
    pub completed: usize,
    /// Walltime kills → re-runs.
    pub walltime_reruns: usize,
    /// Memory kills → re-runs.
    pub memory_reruns: usize,
    /// Queue rejections → resubmissions.
    pub queue_rejections: usize,
    /// Error detours (ZBRENT / bands / unconverged).
    pub detours: usize,
    /// Fireworks fizzled for manual intervention.
    pub fizzled: usize,
    /// Duplicate jobs replaced by pointers.
    pub dedup_hits: usize,
    /// Simulated compute node-seconds consumed.
    pub compute_s: f64,
    /// Simulated queue-wait seconds accumulated.
    pub queue_wait_s: f64,
    /// Simulated data-loading seconds (the §IV-C1 post-processing).
    pub load_s: f64,
    /// In-process datastore overhead, microseconds (the paper's
    /// "negligible fraction" claim, measured).
    pub store_overhead_us: u64,
    /// Campaign makespan (simulated s).
    pub makespan_s: f64,
}

/// The whole system, wired together.
pub struct MaterialsProject {
    pad: LaunchPad,
    cluster: ClusterSpec,
    batch: BatchConfig,
    netpolicy: NetworkPolicy,
    mode: SubmissionMode,
    sim_time: f64,
    user: String,
}

impl MaterialsProject {
    /// Production-flavoured deployment: medium cluster, per-user queue
    /// cap of 8 *with* an advance reservation for the production user
    /// (exactly the arrangement §IV-A1 describes), workers blocked from
    /// the datastore (proxy loading).
    pub fn new() -> Result<Self> {
        Self::on(Database::new())
    }

    /// The same deployment over an existing database — a durably opened
    /// one, or one recovered from an earlier run whose queue it resumes.
    pub fn on(db: Database) -> Result<Self> {
        let user = "mp-prod".to_string();
        let mut batch = BatchConfig::default();
        batch.reservations.push(Reservation {
            user: user.clone(),
            start: 0.0,
            end: f64::INFINITY,
        });
        Ok(MaterialsProject {
            pad: LaunchPad::new(db)?,
            cluster: ClusterSpec::medium(),
            batch,
            netpolicy: NetworkPolicy::default(),
            mode: SubmissionMode::OneJobPerCalc,
            sim_time: 0.0,
            user,
        })
    }

    /// Override the cluster.
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = cluster;
        self
    }

    /// Override the batch configuration (e.g. drop the reservation to
    /// study queue-cap pain).
    pub fn with_batch_config(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Choose the submission mode.
    pub fn with_mode(mut self, mode: SubmissionMode) -> Self {
        self.mode = mode;
        self
    }

    /// The shared datastore.
    pub fn database(&self) -> &Database {
        self.pad.database()
    }

    /// The workflow engine.
    pub fn launchpad(&self) -> &LaunchPad {
        &self.pad
    }

    /// Current simulated time.
    pub fn sim_time(&self) -> f64 {
        self.sim_time
    }

    /// Ingest `n` synthetic-ICSD records into the `mps` collection.
    /// Record ids are renumbered after any existing records so repeated
    /// ingests (different seeds/streams) coexist.
    pub fn ingest_icsd(&self, n: usize, seed: u64) -> Result<Vec<MpsRecord>> {
        let mut gen = IcsdGenerator::new(seed);
        let recs = gen.generate(n);
        self.store_mps(recs)
    }

    fn store_mps(&self, mut recs: Vec<MpsRecord>) -> Result<Vec<MpsRecord>> {
        let coll = self.database().collection("mps");
        let base = coll.len();
        for (i, r) in recs.iter_mut().enumerate() {
            r.mps_id = format!("mps-{}", base + i + 1);
            coll.insert_one(r.to_doc())?;
        }
        Ok(recs)
    }

    /// Ingest battery-focused candidates (for the Fig.-1 screen).
    pub fn ingest_battery_candidates(
        &self,
        n: usize,
        seed: u64,
        ion: Element,
    ) -> Result<Vec<MpsRecord>> {
        let mut gen = IcsdGenerator::new(seed);
        let recs = gen.generate_battery_candidates(n, ion);
        self.store_mps(recs)
    }

    /// Submit one static calculation per MPS record as a FireWorks
    /// workflow. Binders carry the structure fingerprint + functional,
    /// so duplicates submitted by anyone are idempotent (§III-C3).
    pub fn submit_calculations(&self, recs: &[MpsRecord]) -> Result<usize> {
        let mut submitted = 0;
        for rec in recs {
            let demand = mp_dft::predict_demand(
                &rec.structure,
                &Incar::default(),
                &mp_dft::Kpoints::automatic(rec.structure.lattice.lengths(), 20.0),
            );
            let walltime = demand.runtime_s * 1.4 + 600.0;
            let spec = make_spec(rec, &Incar::default(), walltime);
            let fw = Firework::new(
                format!("fw-{}", rec.mps_id),
                format!("static {}", rec.structure.formula()),
                Stage(spec),
            )
            .with_binder(Binder::new(rec.structure.fingerprint(), "GGA"));
            self.pad
                .add_workflow(&Workflow::single(format!("wf-{}", rec.mps_id), fw))?;
            submitted += 1;
        }
        Ok(submitted)
    }

    /// Submit the production two-step workflow per record: a relaxation
    /// followed by a static run whose structure arrives through the
    /// child's Fuse (`$fromParent: output.structure`) — the paper's
    /// "overriding input parameters prior to execution, based on the
    /// output state of any parent jobs."
    pub fn submit_relax_static_workflows(&self, recs: &[MpsRecord]) -> Result<usize> {
        let mut submitted = 0;
        for rec in recs {
            let demand = mp_dft::predict_demand(
                &rec.structure,
                &Incar::default(),
                &mp_dft::Kpoints::automatic(rec.structure.lattice.lengths(), 20.0),
            );
            let walltime = demand.runtime_s * 1.4 + 600.0;
            let relax_incar = Incar {
                ibrion: 2,
                ..Incar::default()
            };
            let relax_spec =
                crate::assembler::make_typed_spec(rec, &relax_incar, walltime * 2.0, "relax");
            let relax_fw = Firework::new(
                format!("fw-{}-relax", rec.mps_id),
                format!("relax {}", rec.structure.formula()),
                Stage(relax_spec),
            )
            .with_binder(Binder::new(rec.structure.fingerprint(), "GGA-relax"));

            let static_spec = crate::assembler::make_spec(rec, &Incar::default(), walltime);
            let static_fw = Firework::new(
                format!("fw-{}-static", rec.mps_id),
                format!("static {}", rec.structure.formula()),
                Stage(static_spec),
            )
            .with_binder(Binder::new(rec.structure.fingerprint(), "GGA-static"))
            .after(&format!("fw-{}-relax", rec.mps_id))
            .with_fuse(mp_fireworks::Fuse {
                condition: mp_fireworks::FuseCondition::ParentOutputMatches {
                    filter: json!({"status": "converged"}),
                },
                overrides: Some(json!({"$set": {
                    "structure": {"$fromParent": "output.structure"},
                }})),
            });
            self.pad.add_workflow(
                &mp_fireworks::Workflow::new(
                    format!("wf-{}", rec.mps_id),
                    vec![relax_fw, static_fw],
                )
                .map_err(StoreError::InvalidDocument)?,
            )?;
            submitted += 1;
        }
        Ok(submitted)
    }

    /// Run the campaign to completion (or `max_rounds`).
    ///
    /// Each round: claim READY fireworks, submit them to the simulated
    /// batch system, execute survived allocations through the DFT
    /// engine, stage outputs on "scratch", then run the offline loader
    /// (workers cannot reach the datastore — §IV-A2/§IV-C1) which files
    /// reports back through the launchpad.
    pub fn run_campaign(&mut self, max_rounds: usize) -> Result<CampaignReport> {
        let mut report = CampaignReport::default();
        let store_ops_before = self.database().profiler().total_ops();
        let sim = BatchSimulator::new(self.cluster, self.batch.clone());
        let route = self
            .netpolicy
            .datastore_route()
            .ok_or_else(|| StoreError::Persistence("no route from workers to datastore".into()))?;
        let mut loader = DataLoader::new(route);

        for _round in 0..max_rounds {
            // Claim everything currently READY.
            let mut claims: mp_docstore::Docs = Vec::new();
            while let Some(doc) = self.pad.claim_next(&json!({}), &self.user)? {
                claims.push(doc);
                if claims.len() >= (self.cluster.nodes as usize) * 4 {
                    break; // Submission window per round.
                }
            }
            if claims.is_empty() {
                break;
            }
            report.rounds += 1;

            match self.mode {
                SubmissionMode::OneJobPerCalc => {
                    self.round_one_per_calc(&sim, &claims, &mut loader, &mut report)?;
                }
                SubmissionMode::TaskFarming { tasks_per_farm } => {
                    self.round_farmed(&sim, &claims, tasks_per_farm, &mut loader, &mut report)?;
                }
            }

            // Offline loading pass (the "midrange compute resources" box
            // of Fig. 2).
            report.load_s += loader.drain(&self.pad)?;
        }
        report.makespan_s = self.sim_time;
        report.detours = self
            .database()
            .collection("engines")
            .count(&json!({"replaced_by": {"$exists": true}}))?;
        report.fizzled = self
            .database()
            .collection("engines")
            .count(&json!({"state": "FIZZLED"}))?;
        report.dedup_hits = self
            .database()
            .collection("engines")
            .count(&json!({"duplicate_of": {"$exists": true}}))?;
        report.completed = self
            .database()
            .collection("tasks")
            .count(&json!({"status": "converged"}))?;
        report.store_overhead_us = {
            let samples = self.database().profiler().samples();
            let since: u64 = samples
                .iter()
                .filter(|s| s.seq >= store_ops_before)
                .map(|s| s.micros)
                .sum();
            since
        };
        Ok(report)
    }

    fn round_one_per_calc(
        &mut self,
        sim: &BatchSimulator,
        claims: &[std::sync::Arc<Value>],
        loader: &mut DataLoader,
        report: &mut CampaignReport,
    ) -> Result<()> {
        let mut requests = Vec::with_capacity(claims.len());
        let mut jobs = Vec::with_capacity(claims.len());
        for (i, doc) in claims.iter().enumerate() {
            let fw_id = doc["_id"].as_str().expect("fw id").to_string();
            match assemble(&doc["spec"]) {
                Ok(job) => {
                    let demand = actual_demand(&job.structure, &job.incar, &job.kpoints);
                    let nodes = doc["spec"]["nodes"].as_u64().unwrap_or(1).max(1) as u32;
                    requests.push(JobRequest {
                        id: fw_id.clone(),
                        user: self.user.clone(),
                        submit_time: self.sim_time + i as f64 * 1e-3,
                        walltime_s: job.walltime_s,
                        nodes,
                        actual_runtime_s: demand.runtime_s / (nodes as f64).powf(0.8),
                        actual_mem_gb: demand.memory_gb / nodes as f64,
                    });
                    jobs.push((fw_id, job, demand));
                }
                Err(e) => {
                    self.pad.report(
                        &fw_id,
                        LaunchReport::Fatal {
                            reason: format!("assembler: {e}"),
                        },
                    )?;
                    report.fizzled += 1;
                }
            }
        }
        let records = sim.run(requests);
        report.batch_jobs += records.len();
        let stats = summarize(&records);
        report.queue_wait_s += stats.mean_wait_s * records.len() as f64;
        report.compute_s += stats.node_seconds;
        self.sim_time = self.sim_time.max(stats.makespan_s);

        for rec in &records {
            let (fw_id, job, demand) = jobs
                .iter()
                .find(|(id, _, _)| *id == rec.request.id)
                .expect("job bookkeeping");
            match rec.outcome {
                JobEnd::Completed => {
                    let (run, relax) = execute_task(job);
                    loader.stage(StagedResult {
                        fw_id: fw_id.clone(),
                        mps_id: job.mps_id.clone(),
                        run,
                        relax,
                        structure: job.structure.clone(),
                        incar: job.incar.clone(),
                        kpoints: job.kpoints,
                        intermediate_mb: demand.intermediate_mb,
                    });
                }
                JobEnd::WalltimeExceeded => {
                    report.walltime_reruns += 1;
                    self.pad.report(
                        fw_id,
                        LaunchReport::Rerun {
                            spec_updates: json!({"$mul": {"walltime_s": 2.0}}),
                            reason: "walltime exceeded".into(),
                        },
                    )?;
                }
                JobEnd::MemoryExceeded => {
                    report.memory_reruns += 1;
                    self.pad.report(
                        fw_id,
                        LaunchReport::Rerun {
                            spec_updates: json!({"$mul": {"nodes": 2}}),
                            reason: "memory exceeded; doubling nodes".into(),
                        },
                    )?;
                }
                JobEnd::QueueRejected => {
                    report.queue_rejections += 1;
                    self.pad.report(
                        fw_id,
                        LaunchReport::Release {
                            reason: "queue cap; resubmit next round".into(),
                        },
                    )?;
                }
            }
        }
        Ok(())
    }

    fn round_farmed(
        &mut self,
        sim: &BatchSimulator,
        claims: &[std::sync::Arc<Value>],
        tasks_per_farm: usize,
        loader: &mut DataLoader,
        report: &mut CampaignReport,
    ) -> Result<()> {
        let tasks_per_farm = tasks_per_farm.max(1);
        // Assemble every claim; collect farm tasks.
        let mut assembled = Vec::new();
        for doc in claims {
            let fw_id = doc["_id"].as_str().expect("fw id").to_string();
            match assemble(&doc["spec"]) {
                Ok(job) => {
                    let demand = actual_demand(&job.structure, &job.incar, &job.kpoints);
                    assembled.push((fw_id, job, demand));
                }
                Err(e) => {
                    self.pad.report(
                        &fw_id,
                        LaunchReport::Fatal {
                            reason: format!("assembler: {e}"),
                        },
                    )?;
                }
            }
        }
        // Build one batch request per farm; walltime sized to the sum of
        // member runtimes (the variance smoothing §IV-A1 describes).
        let mut requests = Vec::new();
        let chunks: Vec<Vec<usize>> = (0..assembled.len())
            .collect::<Vec<usize>>()
            .chunks(tasks_per_farm)
            .map(|c| c.to_vec())
            .collect();
        for (fi, chunk) in chunks.iter().enumerate() {
            let total: f64 = chunk.iter().map(|&i| assembled[i].2.runtime_s).sum();
            requests.push(JobRequest {
                id: format!("farm-{fi}"),
                user: self.user.clone(),
                submit_time: self.sim_time + fi as f64 * 1e-3,
                walltime_s: total * 1.2 + 600.0,
                nodes: 1,
                actual_runtime_s: total,
                actual_mem_gb: chunk
                    .iter()
                    .map(|&i| assembled[i].2.memory_gb)
                    .fold(0.0, f64::max),
            });
        }
        let records = sim.run(requests);
        report.batch_jobs += records.len();
        let stats = summarize(&records);
        report.queue_wait_s += stats.mean_wait_s * records.len() as f64;
        report.compute_s += stats.node_seconds;
        self.sim_time = self.sim_time.max(stats.makespan_s);

        for (fi, rec) in records.iter().enumerate() {
            let chunk = &chunks[fi];
            match rec.outcome {
                JobEnd::Completed | JobEnd::WalltimeExceeded => {
                    // Run the farm inside the allocation it actually got.
                    let allocation = rec.end_time - rec.start_time.unwrap_or(rec.end_time);
                    let farm_tasks: Vec<FarmTask> = chunk
                        .iter()
                        .map(|&i| FarmTask {
                            id: assembled[i].0.clone(),
                            runtime_s: assembled[i].2.runtime_s,
                        })
                        .collect();
                    let outcome = run_farm(&farm_tasks, 1, allocation);
                    for (task_id, _) in &outcome.completed {
                        let (fw_id, job, demand) = assembled
                            .iter()
                            .find(|(id, _, _)| id == task_id)
                            .expect("farm bookkeeping");
                        let (run, relax) = execute_task(job);
                        loader.stage(StagedResult {
                            fw_id: fw_id.clone(),
                            mps_id: job.mps_id.clone(),
                            run,
                            relax,
                            structure: job.structure.clone(),
                            incar: job.incar.clone(),
                            kpoints: job.kpoints,
                            intermediate_mb: demand.intermediate_mb,
                        });
                    }
                    for task_id in &outcome.unfinished {
                        report.walltime_reruns += 1;
                        self.pad.report(
                            task_id,
                            LaunchReport::Release {
                                reason: "did not fit in farm allocation".into(),
                            },
                        )?;
                    }
                }
                JobEnd::MemoryExceeded | JobEnd::QueueRejected => {
                    for &i in chunk {
                        report.queue_rejections += 1;
                        self.pad.report(
                            &assembled[i].0,
                            LaunchReport::Release {
                                reason: "farm failed; resubmit".into(),
                            },
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Run the full analytics stack over completed tasks.
    pub fn build_views(&self, working_ion: Element) -> Result<Value> {
        crate::analytics::build_all_views(self.database(), working_ion)
    }

    /// Run the MapReduce V&V suite (§IV-C2).
    pub fn run_vnv(&self) -> Result<mp_mapi::VnvViolations> {
        mp_mapi::run_vnv_checks(self.database(), &mp_docstore::HadoopEngine::new(4))
    }

    /// Stand up the Materials API over this datastore.
    pub fn materials_api(&self) -> mp_mapi::MaterialsApi {
        mp_mapi::MaterialsApi::new(
            mp_mapi::QueryEngine::new(self.database().clone()),
            mp_mapi::AuthRegistry::new(),
        )
    }
}

/// Execute one assembled job: relax tasks run the geometry optimizer
/// first and the SCF at the relaxed geometry; static tasks run directly.
fn execute_task(
    job: &crate::assembler::AssembledJob,
) -> (mp_dft::RunResult, Option<mp_dft::RelaxResult>) {
    if job.task_type == "relax" {
        let relaxed = mp_dft::relax(&job.structure);
        let run = mp_dft::run(&relaxed.structure, &job.incar, &job.kpoints);
        (run, Some(relaxed))
    } else {
        (mp_dft::run(&job.structure, &job.incar, &job.kpoints), None)
    }
}

/// Map a DFT run status onto the paper's analyzer decision: converged →
/// success with the reduced doc; recoverable error → detour with the
/// prescribed parameter change; otherwise fatal.
pub fn analyze_run(
    run: &mp_dft::RunResult,
    relax: Option<&mp_dft::RelaxResult>,
    structure: &mp_matsci::Structure,
    incar: &Incar,
    kpoints: &mp_dft::Kpoints,
    mps_id: &str,
) -> LaunchReport {
    match run.status {
        RunStatus::Converged => {
            let mut task_doc = run.to_task_doc(structure, incar, kpoints);
            if let Some(obj) = task_doc.as_object_mut() {
                obj.insert("mps_id".into(), json!(mps_id));
                if let Some(r) = relax {
                    obj.insert("task_type".into(), json!("relax"));
                    // The relaxed geometry is the payload the child
                    // static run pulls through its Fuse ($fromParent).
                    obj["output"]["structure"] =
                        serde_json::to_value(&r.structure).expect("structure serializes");
                    obj["output"]["relax_trajectory"] =
                        serde_json::to_value(&r.trajectory).expect("trajectory serializes");
                    obj["output"]["relax_steps"] = json!(r.nsteps);
                } else {
                    obj.insert("task_type".into(), json!("static"));
                }
            }
            LaunchReport::Success { task_doc }
        }
        _ => {
            let nelect = structure.composition().num_electrons();
            match mp_dft::detour_parameters(incar, &run.status, nelect) {
                Some((fixed, reason)) => LaunchReport::Detour {
                    spec_updates: json!({"$set": {"incar": fixed.to_dict()}}),
                    reason,
                },
                None => LaunchReport::Fatal {
                    reason: format!("unhandled status {:?}", run.status),
                },
            }
        }
    }
}
