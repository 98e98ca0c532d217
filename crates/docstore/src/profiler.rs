//! Per-operation latency profiling.
//!
//! Figure 5 of the paper is a histogram of query times "across all
//! collections" plus a time-series inset. This module records one sample
//! per store operation into a bounded ring buffer and can export exactly
//! those two views. An optional *simulated latency model* adds the
//! network/disk component a remote MongoDB deployment would see, so the
//! reproduced histogram lands in the paper's few-hundred-millisecond
//! regime instead of the in-process microsecond regime.

use mp_sync::{LockRank, OrderedMutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Kind of store operation being timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    Insert,
    Find,
    Update,
    Delete,
    Count,
    FindAndModify,
    MapReduce,
}

impl OpKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Find => "find",
            OpKind::Update => "update",
            OpKind::Delete => "delete",
            OpKind::Count => "count",
            OpKind::FindAndModify => "findAndModify",
            OpKind::MapReduce => "mapreduce",
        }
    }
}

/// One recorded operation.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Collection the operation ran against.
    pub collection: Arc<str>,
    /// Operation kind.
    pub kind: OpKind,
    /// Measured in-process latency, microseconds.
    pub micros: u64,
    /// Monotonic sequence number (stands in for wall-clock time).
    pub seq: u64,
}

struct State {
    samples: VecDeque<OpSample>,
    seq: u64,
    enabled: bool,
    counters: BTreeMap<String, u64>,
}

/// Bounded ring buffer of operation samples.
pub struct Profiler {
    state: OrderedMutex<State>,
    capacity: usize,
}

impl Profiler {
    /// Create a profiler retaining at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        Profiler {
            // Innermost rank: `record` runs from RAII timers that may
            // drop while store guards are (briefly) still live.
            state: OrderedMutex::new(
                LockRank::Profiler,
                State {
                    samples: VecDeque::with_capacity(capacity.min(4096)),
                    seq: 0,
                    enabled: true,
                    counters: BTreeMap::new(),
                },
            ),
            capacity,
        }
    }

    /// Enable or disable sampling (disabled costs one mutex probe per op).
    pub fn set_enabled(&self, on: bool) {
        self.state.lock().enabled = on;
    }

    /// Begin timing an operation; the returned guard records on drop.
    pub fn start<'a>(&'a self, collection: &'a Arc<str>, kind: OpKind) -> OpTimer<'a> {
        OpTimer {
            profiler: self,
            collection,
            kind,
            start: Instant::now(),
        }
    }

    fn record(&self, collection: Arc<str>, kind: OpKind, micros: u64) {
        let mut st = self.state.lock();
        if !st.enabled {
            return;
        }
        let seq = st.seq;
        st.seq += 1;
        if st.samples.len() == self.capacity {
            st.samples.pop_front();
        }
        st.samples.push_back(OpSample {
            collection,
            kind,
            micros,
            seq,
        });
    }

    /// Increment the named event counter (`plan.collscan`, `cache.hit`,
    /// ...). Counters are independent of sampling being enabled and are
    /// not capped by the ring-buffer capacity.
    pub fn bump(&self, counter: &str) {
        self.add(counter, 1);
    }

    /// Add `n` to the named event counter (`column.rows_pruned`). Only a
    /// counter's first bump allocates its name.
    pub fn add(&self, counter: &str, n: u64) {
        let mut st = self.state.lock();
        match st.counters.get_mut(counter) {
            Some(count) => *count += n,
            None => {
                st.counters.insert(counter.to_owned(), n);
            }
        }
    }

    /// Current value of a named counter (0 when never bumped).
    pub fn counter(&self, counter: &str) -> u64 {
        self.state
            .lock()
            .counters
            .get(counter)
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of all named counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.state.lock().counters.clone()
    }

    /// Copy out all retained samples.
    pub fn samples(&self) -> Vec<OpSample> {
        self.state.lock().samples.iter().cloned().collect()
    }

    /// Total operations observed since creation (not capped by capacity).
    pub fn total_ops(&self) -> u64 {
        self.state.lock().seq
    }

    /// Drop all samples.
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.samples.clear();
    }

    /// Histogram of latencies with logarithmic bucket edges, for Fig. 5.
    /// `edges_micros` are upper bounds; a final overflow bucket is added.
    pub fn histogram(&self, edges_micros: &[u64]) -> Vec<(String, usize)> {
        let samples = self.samples();
        let mut counts = vec![0usize; edges_micros.len() + 1];
        for s in &samples {
            let mut placed = false;
            for (i, edge) in edges_micros.iter().enumerate() {
                if s.micros <= *edge {
                    counts[i] += 1;
                    placed = true;
                    break;
                }
            }
            if !placed {
                *counts.last_mut().expect("overflow bucket") += 1;
            }
        }
        let mut out = Vec::with_capacity(counts.len());
        let mut lo = 0u64;
        for (i, edge) in edges_micros.iter().enumerate() {
            out.push((format!("{}-{}us", lo, edge), counts[i]));
            lo = *edge;
        }
        out.push((format!(">{}us", lo), counts[edges_micros.len()]));
        out
    }

    /// Latency percentile over retained samples (p in [0,100]).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let mut v: Vec<u64> = self.samples().iter().map(|s| s.micros).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_unstable();
        let rank = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        Some(v[rank.min(v.len() - 1)])
    }
}

/// RAII timer returned by [`Profiler::start`].
pub struct OpTimer<'a> {
    profiler: &'a Profiler,
    collection: &'a Arc<str>,
    kind: OpKind,
    start: Instant,
}

impl Drop for OpTimer<'_> {
    fn drop(&mut self) {
        let micros = self.start.elapsed().as_micros() as u64;
        self.profiler
            .record(Arc::clone(self.collection), self.kind, micros);
    }
}

/// Deterministic latency model for a *remote* datastore deployment:
/// client → proxy → server round trip plus occasional page faults. Used by
/// the Fig. 5 harness to place in-process measurements in the regime a
/// 2012 WAN client of materialsproject.org observed.
#[derive(Debug, Clone)]
pub struct RemoteLatencyModel {
    /// Fixed round-trip time, microseconds.
    pub rtt_micros: u64,
    /// Per-returned-document serialization cost, microseconds.
    pub per_doc_micros: u64,
    /// Every `fault_every`-th query pays `fault_micros` (cold working set).
    pub fault_every: u64,
    /// Page-fault penalty, microseconds.
    pub fault_micros: u64,
}

impl Default for RemoteLatencyModel {
    fn default() -> Self {
        // ~180 ms WAN RTT + apache/wsgi overhead, 40 us/doc, a 1.6 s
        // penalty every 97th query: yields Fig. 5's few-hundred-ms mode
        // with a sparse tail of multi-second outliers.
        RemoteLatencyModel {
            rtt_micros: 180_000,
            per_doc_micros: 40,
            fault_every: 97,
            fault_micros: 1_600_000,
        }
    }
}

impl RemoteLatencyModel {
    /// Latency a remote client would observe for the `seq`-th query that
    /// took `local_micros` in-process and returned `ndocs` documents.
    pub fn observed_micros(&self, seq: u64, local_micros: u64, ndocs: usize) -> u64 {
        let mut t = self.rtt_micros + local_micros + self.per_doc_micros * ndocs as u64;
        // Deterministic jitter derived from the sequence number.
        let jitter = seq.wrapping_mul(2654435761) % 60_000;
        t += jitter;
        if self.fault_every > 0 && seq % self.fault_every == self.fault_every - 1 {
            t += self.fault_micros;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let (p, c) = (Profiler::new(10), Arc::from("c"));
        {
            let _t = p.start(&c, OpKind::Find);
        }
        {
            let _t = p.start(&c, OpKind::Insert);
        }
        assert_eq!(p.samples().len(), 2);
        assert_eq!(p.total_ops(), 2);
    }

    #[test]
    fn ring_buffer_caps() {
        let (p, c) = (Profiler::new(3), Arc::from("c"));
        for _ in 0..10 {
            let _t = p.start(&c, OpKind::Find);
        }
        assert_eq!(p.samples().len(), 3);
        assert_eq!(p.total_ops(), 10);
        // Oldest dropped: sequence numbers are the last three.
        let seqs: Vec<u64> = p.samples().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn disabled_records_nothing() {
        let (p, c) = (Profiler::new(10), Arc::from("c"));
        p.set_enabled(false);
        {
            let _t = p.start(&c, OpKind::Find);
        }
        assert!(p.samples().is_empty());
    }

    #[test]
    fn histogram_buckets() {
        let p = Profiler::new(100);
        // Inject synthetic samples via the public record path.
        for micros in [5u64, 50, 500, 5000] {
            p.record("c".into(), OpKind::Find, micros);
        }
        let h = p.histogram(&[10, 100, 1000]);
        let counts: Vec<usize> = h.iter().map(|(_, c)| *c).collect();
        assert_eq!(counts, vec![1, 1, 1, 1]);
    }

    #[test]
    fn percentiles() {
        let p = Profiler::new(100);
        for m in 1..=100u64 {
            p.record("c".into(), OpKind::Find, m);
        }
        assert_eq!(p.percentile(0.0), Some(1));
        assert_eq!(p.percentile(100.0), Some(100));
        let med = p.percentile(50.0).unwrap();
        assert!((49..=52).contains(&med));
    }

    #[test]
    fn latency_model_regime() {
        let m = RemoteLatencyModel::default();
        // Typical query: few hundred ms.
        let t = m.observed_micros(5, 300, 20);
        assert!(t > 150_000 && t < 500_000, "typical {t}");
        // Fault query: > 1 s.
        let t = m.observed_micros(96, 300, 20);
        assert!(t > 1_000_000, "fault {t}");
    }
}
