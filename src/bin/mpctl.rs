//! `mpctl` — the operator's console for a Materials Project deployment.
//!
//! Every subcommand opens `--data` as a durable store, so the campaign
//! `demo` runs is write-ahead logged as it goes (a `demo` killed before
//! its final checkpoint leaves a directory the other subcommands read
//! back from the WAL) — a small end-to-end demonstration of the
//! datastore as a *durable* service:
//!
//! ```text
//! mpctl demo  --data /tmp/mpdata --n 40 --seed 7   # build + checkpoint
//! mpctl stats --data /tmp/mpdata                   # collection stats
//! mpctl query --data /tmp/mpdata materials '{"elements":"Li"}'
//! mpctl vnv   --data /tmp/mpdata                   # consistency checks
//! mpctl page  --data /tmp/mpdata mp-1 > mp-1.html  # portal detail page
//! ```

use materials_project::docstore::{BuiltinEngine, Database, DurableDatabase};
use materials_project::mapi::{QueryEngine, WebUi};
use materials_project::matsci::Element;
use materials_project::MaterialsProject;
use serde_json::Value;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn usage() -> ! {
    eprintln!(
        "usage: mpctl <demo|stats|query|vnv|page> --data DIR [args]\n\
         \n  demo  --data DIR [--n N] [--seed S]   build a deployment in DIR and checkpoint it\
         \n  stats --data DIR                      per-collection document/index stats\
         \n  query --data DIR COLLECTION FILTER    run a sanitized find\
         \n  vnv   --data DIR                      run the MapReduce V&V checks\
         \n  page  --data DIR MATERIAL_ID          render the portal detail page"
    );
    std::process::exit(2)
}

fn recover(dir: &str) -> Result<Database, Box<dyn std::error::Error>> {
    Ok(DurableDatabase::open(dir)?.database().clone())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let Some(data) = arg_value(&args, "--data") else {
        usage()
    };
    // Positional arguments: everything after the subcommand that is not
    // part of a `--flag value` pair.
    let mut positional: Vec<String> = Vec::new();
    let mut skip_next = true; // skip the subcommand itself
    for a in args.iter() {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a.starts_with("--") {
            skip_next = true;
            continue;
        }
        positional.push(a.clone());
    }

    match cmd.as_str() {
        "demo" => {
            let n: usize = arg_value(&args, "--n")
                .and_then(|s| s.parse().ok())
                .unwrap_or(40);
            let seed: u64 = arg_value(&args, "--seed")
                .and_then(|s| s.parse().ok())
                .unwrap_or(7);
            let store = DurableDatabase::open(&data)?;
            let mut mp = MaterialsProject::on(store.database().clone())?;
            let recs = mp.ingest_icsd(n, seed)?;
            mp.submit_calculations(&recs)?;
            let report = mp.run_campaign(30)?;
            mp.build_views(Element::from_symbol("Li")?)?;
            store.checkpoint()?;
            println!(
                "deployment built: {} tasks, {} materials; checkpointed in {data}",
                report.completed,
                mp.database().collection("materials").len()
            );
        }
        "stats" => {
            let db = recover(&data)?;
            println!("{:<18} {:>8}  {:>6}  indexes", "collection", "docs", "KB");
            for name in db.collection_names() {
                let coll = db.collection(&name);
                let bytes: usize = coll
                    .dump()
                    .iter()
                    .map(|d| serde_json::to_string(d).map(|s| s.len()).unwrap_or(0))
                    .sum();
                println!(
                    "{:<18} {:>8}  {:>6}  {}",
                    name,
                    coll.len(),
                    bytes / 1024,
                    coll.index_paths().join(", ")
                );
            }
            println!("\ntotal documents: {}", db.total_documents());
        }
        "query" => {
            let (Some(coll), Some(filter)) = (positional.first(), positional.get(1)) else {
                usage()
            };
            let db = recover(&data)?;
            let criteria: Value = serde_json::from_str(filter)?;
            let qe = QueryEngine::new(db);
            let hits = qe.query(coll, &criteria, &[], Some(20))?;
            println!("{} document(s):", hits.len());
            for h in hits {
                println!("{}", serde_json::to_string(&h)?);
            }
        }
        "vnv" => {
            let db = recover(&data)?;
            let violations =
                materials_project::mapi::run_vnv_checks(&db, &BuiltinEngine::default())?;
            for (check, ids) in &violations {
                let status = if ids.is_empty() { "PASS" } else { "FAIL" };
                println!("{status}  {check}  ({} violations)", ids.len());
                for id in ids.iter().take(5) {
                    println!("        {id}");
                }
            }
            if !materials_project::mapi::vnv_clean(&violations) {
                std::process::exit(1);
            }
        }
        "page" => {
            let Some(id) = positional.first() else {
                usage()
            };
            let db = recover(&data)?;
            let qe = QueryEngine::new(db);
            let ui = WebUi::new(&qe);
            match ui.material_page(id)? {
                Some(html) => println!("{html}"),
                None => {
                    eprintln!("no material '{id}'");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
    Ok(())
}
