//! `portal_hot`: closed-loop clients, Zipf(1.0) over 128 distinct
//! request strings, read-only. The working set fits the 256-entry query
//! cache, so the scan layer does nothing and per-request overhead —
//! admit, cache probe, `rows_to_json`, the web log, and the three
//! global mutexes — is everything.
//!
//! The deployment recycles its `MaterialsApi` on a request budget
//! ([`RECYCLE_AFTER`], see there), each fresh one with the working set
//! primed before it takes traffic.

use crate::api::{
    self, load_materials, CacheDelta, Client, Deployment, Tally, Tracing, Twins, RECYCLE_AFTER,
    WEBLOG_CAPACITY,
};
use crate::corpus::{portal_table, rng_for, stream, Class, Corpus, Request, Zipf};
use crate::host::{self, Cpu};
use crate::{timed_setups, Config, Outcome};
use mp_docstore::Database;
use mp_exec::WorkPool;
use rand::rngs::StdRng;
use std::time::{Duration, Instant};

const CORPUS: usize = 100_000;
const DISTINCT: usize = 128;
const CLIENTS: usize = 2;
/// Traced run: client 0 issues `TRACED_RUN` requests on one API and
/// traces one in `TRACE_EVERY`.
const TRACED_RUN: u64 = 16_384;
const TRACE_EVERY: u64 = 32;

/// A fresh API over `db` with every request of `table` issued once, so
/// the measured phase starts with the whole working set cached.
fn primed(db: &Database, corpus: &Corpus, table: &[Request], failed: &mut u64) -> Deployment {
    let served = Deployment::over(db.clone());
    let mut client = served.client(corpus, 0, 1);
    let mut tally = Tally::default();
    for (i, req) in table.iter().enumerate() {
        client.step(req, i as u64, &mut tally, None);
    }
    *failed += tally.failed;
    served
}

pub fn run(cfg: &Config) -> Outcome {
    let corpus = Corpus::generate(cfg.seed, CORPUS / cfg.scale);
    let table = portal_table(&corpus, cfg.seed, DISTINCT);
    let zipf = Zipf::new(DISTINCT, 1.0);
    let (db, setup_s) = timed_setups(cfg, || {
        let docs = corpus.docs();
        || {
            let db = Database::new();
            load_materials(&db, docs);
            // Part of set-up: the keys registered, the API built.
            drop(Deployment::over(db.clone()));
            db
        }
    });

    // Closed loop: draw, send, check, repeat — until `stop(i)`.
    let client_loop = |rng: &mut StdRng,
                       client: &mut Client<'_>,
                       mut tracing: Option<&mut Tracing>,
                       stop: &(dyn Fn(u64) -> bool + Sync)| {
        let mut tally = Tally::default();
        let mut i = 0;
        while !stop(i) {
            let req = &table[zipf.sample(rng)];
            client.step(req, i, &mut tally, tracing.as_deref_mut());
            i += 1;
        }
        tally
    };
    let mut rngs: Vec<StdRng> = (0..CLIENTS)
        .map(|lane| rng_for(cfg.seed, stream::PORTAL, 1 + lane as u64))
        .collect();

    let mut out = Outcome::default();
    let mut total = Tally::default();
    let mut cache = CacheDelta::default();
    if cfg.trace {
        let served = primed(&db, &corpus, &table, &mut total.failed);
        let cache_before = served.api.query_engine().cache_stats();
        // After priming: the pool calibrates itself on the first scan.
        let pool_before = WorkPool::global().stats();
        let n = TRACED_RUN / cfg.scale as u64;
        // The other clients keep their cores loaded as in the untraced
        // run; their request counts depend on timing, so only client 0's
        // records are reported.
        let others_share = n.div_ceil(CLIENTS as u64);
        let mut tracing = Tracing::new(Twins::new(&served.db), |_| TRACE_EVERY);
        let mut clients: Vec<Client<'_>> = (0..CLIENTS)
            .map(|lane| served.client(&corpus, lane, CLIENTS))
            .collect();
        let (first_rng, rest_rngs) = rngs.split_first_mut().expect("at least one client");
        let (first, rest) = clients.split_first_mut().expect("at least one client");
        let mut untraced = Tally::default();
        std::thread::scope(|s| {
            let others: Vec<_> = rest
                .iter_mut()
                .zip(rest_rngs)
                .map(|(client, rng)| {
                    s.spawn(|| {
                        host::on_cpu(Cpu::Last, || {
                            client_loop(rng, client, None, &|i| i >= others_share)
                        })
                    })
                })
                .collect();
            untraced = host::on_cpu(Cpu::First, || {
                client_loop(first_rng, first, Some(&mut tracing), &|i| i >= n)
            });
            for o in others {
                let other = o.join().expect("client thread");
                total.attempted += other.attempted;
                total.failed += other.failed;
            }
        });
        cache.add(&cache_before, &served.api.query_engine().cache_stats());
        untraced.records += tracing.tally.records;
        api::class_metrics(&mut out, &mut untraced);
        api::layer_metrics(&mut out, &tracing, &mut untraced, Class::Lookup);
        out.set(
            "mapi.weblog_record_full_ns",
            api::weblog_record_full_ns(WEBLOG_CAPACITY / cfg.scale),
        );
        api::pool_metrics(&mut out, &pool_before);
        api::dump_spans(&mut out, cfg, &tracing.tracer, "portal_hot");
        total.absorb(&untraced);
        total.absorb(&tracing.tally);
    } else {
        let per_client = RECYCLE_AFTER / cfg.scale as u64 / CLIENTS as u64;
        let mut measured = Duration::ZERO;
        let mut apis = 0;
        while measured < cfg.window() {
            let served = primed(&db, &corpus, &table, &mut total.failed);
            let cache_before = served.api.query_engine().cache_stats();
            let left = cfg.window() - measured;
            let t = Instant::now();
            // The clock is read once in 64 requests.
            let stop = |i: u64| i >= per_client || (i.is_multiple_of(64) && t.elapsed() >= left);
            std::thread::scope(|s| {
                let clients: Vec<_> = rngs
                    .iter_mut()
                    .enumerate()
                    .map(|(lane, rng)| {
                        let mut client = served.client(&corpus, lane, CLIENTS);
                        let (client_loop, stop) = (&client_loop, &stop);
                        // One core each: see `host::on_cpu`.
                        s.spawn(move || {
                            host::on_cpu([Cpu::First, Cpu::Last][lane], || {
                                client_loop(rng, &mut client, None, stop)
                            })
                        })
                    })
                    .collect();
                for c in clients {
                    total.absorb(&c.join().expect("client thread"));
                }
            });
            measured += t.elapsed();
            cache.add(&cache_before, &served.api.query_engine().cache_stats());
            apis += 1;
        }
        let completed = total.attempted - total.failed;
        out.end_to_end(
            setup_s,
            &mut total.all,
            99.0,
            completed,
            measured.as_secs_f64(),
        );
        api::class_metrics(&mut out, &mut total);
        out.note(format!(
            "{apis} APIs, each recycled after at most {} requests",
            per_client * CLIENTS as u64
        ));
    }
    cache.report(&mut out);
    out.attempted = total.attempted;
    out.failed = total.failed;
    out.note(format!(
        "portal_hot: {CLIENTS} closed-loop clients, {DISTINCT} distinct requests over {} docs, the API recycled on a request budget",
        corpus.records.len(),
    ));
    out
}
