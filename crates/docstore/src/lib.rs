//! # mp-docstore — embedded NoSQL document store
//!
//! A from-scratch, thread-safe, in-process reproduction of the MongoDB
//! feature set the Materials Project paper (SC 2012) builds on:
//!
//! * JSON documents organized in named [`Collection`]s inside a
//!   [`Database`];
//! * Mongo-style **query language** (`$all`, `$lte`, `$in`, `$or`,
//!   `$elemMatch`, dotted paths through arrays, …) — see [`query`];
//! * **atomic update operators** (`$set`, `$inc`, `$push`, …) — see
//!   [`update`];
//! * **secondary indexes** with equality/range acceleration — [`index`];
//! * **find-and-modify** (the atomic queue-claim primitive the FireWorks
//!   workflow engine relies on);
//! * two **MapReduce** engines — the paper's single-threaded "builtin"
//!   and a parallel "Hadoop-like" runtime — see [`mapreduce`];
//! * a per-operation **profiler** exporting Fig.-5-style latency
//!   histograms — [`profiler`];
//! * document **structure statistics** (nodes/depth/mean depth) exactly
//!   as Table I reports them — [`docgraph`];
//! * snapshot + write-ahead-log **persistence** with crash recovery —
//!   [`persist`], both files in one checksummed binary record format
//!   ([`codec`]);
//! * **durability as a property of the database**: one commit seam every
//!   mutation runs through, write-ahead once a journal is attached —
//!   [`journal`]; [`durable`] opens a directory that way, so every handle
//!   of the database it returns is durable.
//!
//! ```
//! use mp_docstore::Database;
//! use serde_json::json;
//!
//! let db = Database::new();
//! let engines = db.collection("engines");
//! engines.insert_one(json!({
//!     "elements": ["Li", "O"], "nelectrons": 120, "state": "READY"
//! })).unwrap();
//!
//! // The paper's job-selection query, §III-B2:
//! let ready = engines.find(&json!({
//!     "elements": {"$all": ["Li", "O"]},
//!     "nelectrons": {"$lte": 200}
//! })).unwrap();
//! assert_eq!(ready.len(), 1);
//! ```

pub mod aggregate;
pub mod codec;
pub mod collection;
mod column;
pub mod cursor;
pub mod database;
pub mod docgraph;
pub mod durable;
pub mod error;
pub mod index;
pub mod journal;
mod key;
pub mod mapreduce;
pub mod persist;
pub mod profiler;
pub mod query;
pub mod shard;
pub mod update;
pub mod value;

pub use aggregate::{parse_pipeline, run_pipeline, Accumulator, Stage as AggStage};
pub use collection::{Collection, PlanKind, UpdateResult, MORSEL_ROWS};
pub use cursor::{CompiledFindOptions, CompiledProjection, FindOptions, SortDir};
pub use database::Database;
pub use docgraph::{doc_stats, schema_stats, DocStats};
pub use durable::{DurableDatabase, DurableOptions};
pub use error::{Result, StoreError};
pub use index::{DocId, Index};
pub use mapreduce::{BuiltinEngine, HadoopEngine, HdfsStage, MapReduce};
pub use persist::{GroupCommit, JournalOp, Persister, RecoveryReport};
pub use profiler::{OpKind, Profiler, RemoteLatencyModel};
pub use query::{CompiledFilter, Filter};
pub use shard::{ReadPreference, ReplicaSet, ShardedCluster};
pub use update::Update;
pub use value::{to_docs, Docs, Document};
