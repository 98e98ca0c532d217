//! `explore_scan`: one closed-loop client (the second core is left to
//! the morsel pool) running cycles of one unindexed range query, a run
//! of indexed chemsys browses and one projected bulk pull, every
//! request with parameters no earlier request used. The working set is
//! far larger than the 256-entry cache, so the hit ratio is ~0 and
//! plan/scan/project, the seq-vs-parallel choice, `sanitize`/`lint_for`
//! and the 10,000-row deep copy do the work.

use crate::api::{self, load_materials, CacheDelta, Deployment, Tally, Tracing, Twins};
use crate::corpus::{Class, Corpus, ExploreStream};
use crate::{timed_setups, Config, Outcome};
use mp_docstore::Database;
use mp_exec::WorkPool;
use std::time::Instant;

const CORPUS: usize = 100_000;
const BROWSES_PER_CYCLE: usize = 20;
/// Cycles before measuring starts: the pool's dispatch overhead and the
/// crossover's per-item cost are calibrated by the first scans.
const WARMUP_CYCLES: usize = 2;
/// Traced run: this many cycles, tracing every other scan and bulk pull
/// and one browse in 16.
const TRACED_CYCLES: usize = 40;

pub fn run(cfg: &Config) -> Outcome {
    let corpus = Corpus::generate(cfg.seed, CORPUS / cfg.scale);
    let (served, setup_s) = timed_setups(cfg, || {
        let docs = corpus.docs();
        || {
            let db = Database::new();
            load_materials(&db, docs);
            Deployment::over(db)
        }
    });
    let per_cycle = BROWSES_PER_CYCLE + 2;
    let mut stream = ExploreStream::new(&corpus, cfg.seed, BROWSES_PER_CYCLE);
    let mut client = served.client(&corpus, 0, 1);
    let mut warm = Tally::default();
    for (i, req) in stream.by_ref().take(WARMUP_CYCLES * per_cycle).enumerate() {
        client.step(&req, i as u64, &mut warm, None);
    }

    let cache_before = served.api.query_engine().cache_stats();
    let pool_before = WorkPool::global().stats();
    let mut out = Outcome::default();
    let mut total = Tally {
        failed: warm.failed,
        ..Tally::default()
    };
    if cfg.trace {
        let n = (TRACED_CYCLES / cfg.scale).max(2) * per_cycle;
        let mut tracing = Tracing::new(Twins::new(&served.db), |class| match class {
            Class::Browse => 16,
            _ => 2,
        });
        for (i, req) in stream.by_ref().take(n).enumerate() {
            client.step(&req, i as u64, &mut total, Some(&mut tracing));
        }
        total.records += tracing.tally.records;
        api::class_metrics(&mut out, &mut total);
        api::layer_metrics(&mut out, &tracing, &mut total, Class::Collscan);
        api::dump_spans(&mut out, cfg, &tracing.tracer, "explore_scan");
        total.absorb(&tracing.tally);
    } else {
        let t = Instant::now();
        let mut i = 0;
        while t.elapsed() < cfg.window() {
            let req = stream.next().expect("the stream is endless");
            client.step(&req, i, &mut total, None);
            i += 1;
        }
        let wall_s = t.elapsed().as_secs_f64();
        let completed = total.attempted - total.failed;
        out.end_to_end(setup_s, &mut total.all, 99.0, completed, wall_s);
        api::class_metrics(&mut out, &mut total);
    }
    let mut cache = CacheDelta::default();
    cache.add(&cache_before, &served.api.query_engine().cache_stats());
    cache.report(&mut out);
    api::pool_metrics(&mut out, &pool_before);
    out.attempted = total.attempted;
    out.failed = total.failed;
    out.note(format!(
        "explore_scan: 1 closed-loop client, cycles of 1 range scan + {BROWSES_PER_CYCLE} browses + 1 bulk pull over {} docs in {} systems",
        corpus.records.len(),
        corpus.systems.len()
    ));
    out
}
