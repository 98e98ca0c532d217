//! Web-query logging: the data behind Fig. 5.
//!
//! Every Materials API request is recorded with its observed latency
//! (in-process work + the simulated remote deployment latency model)
//! and the number of records returned. The log exports the two views of
//! Fig. 5: a latency histogram and a time-series of individual queries.

use mp_docstore::RemoteLatencyModel;
use mp_sync::{LockRank, OrderedMutex};
use std::collections::VecDeque;

/// One logged web query.
#[derive(Debug, Clone, PartialEq)]
pub struct WebQuery {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Simulated wall-clock of the request (s).
    pub time: f64,
    /// Observed latency (ms) under the deployment model.
    pub latency_ms: f64,
    /// Records returned.
    pub nrecords: usize,
    /// Request path.
    pub path: String,
}

/// Bounded log of web queries.
pub struct WebLog {
    model: RemoteLatencyModel,
    /// Ring of the latest `capacity` queries, oldest first.
    entries: OrderedMutex<VecDeque<WebQuery>>,
    capacity: usize,
}

impl WebLog {
    /// Log retaining up to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self::with_model(capacity, RemoteLatencyModel::default())
    }

    /// Use a custom latency model.
    pub fn with_model(capacity: usize, model: RemoteLatencyModel) -> Self {
        WebLog {
            model,
            entries: OrderedMutex::new(LockRank::WebLog, VecDeque::new()),
            capacity,
        }
    }

    /// Record one request; returns the observed latency (ms).
    pub fn record(&self, time: f64, path: &str, local_micros: u64, nrecords: usize) -> f64 {
        let mut entries = self.entries.lock();
        let seq = entries.back().map(|e| e.seq + 1).unwrap_or(0);
        let observed = self.model.observed_micros(seq, local_micros, nrecords);
        let latency_ms = observed as f64 / 1000.0;
        if entries.len() >= self.capacity {
            entries.pop_front();
        }
        entries.push_back(WebQuery {
            seq,
            time,
            latency_ms,
            nrecords,
            path: path.to_string(),
        });
        latency_ms
    }

    /// All retained entries.
    pub fn entries(&self) -> Vec<WebQuery> {
        self.entries.lock().iter().cloned().collect()
    }

    /// Total records served across retained entries.
    pub fn total_records(&self) -> usize {
        self.entries.lock().iter().map(|e| e.nrecords).sum()
    }

    /// Histogram of latency (ms) with the given bucket edges
    /// (upper bounds); final overflow bucket appended — Fig. 5's main
    /// panel.
    pub fn histogram_ms(&self, edges: &[f64]) -> Vec<(String, usize)> {
        let entries = self.entries.lock();
        let mut counts = vec![0usize; edges.len() + 1];
        for e in entries.iter() {
            let idx = edges
                .iter()
                .position(|edge| e.latency_ms <= *edge)
                .unwrap_or(edges.len());
            if let Some(c) = counts.get_mut(idx) {
                *c += 1;
            }
        }
        let mut out = Vec::with_capacity(counts.len());
        let mut lo = 0.0;
        for (edge, n) in edges.iter().zip(&counts) {
            out.push((format!("{lo:.0}-{edge:.0}ms"), *n));
            lo = *edge;
        }
        out.push((format!(">{lo:.0}ms"), counts.last().copied().unwrap_or(0)));
        out
    }

    /// Time-series (time, latency ms) — Fig. 5's inset.
    pub fn time_series(&self) -> Vec<(f64, f64)> {
        self.entries
            .lock()
            .iter()
            .map(|e| (e.time, e.latency_ms))
            .collect()
    }

    /// Latency percentile over retained entries.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        let mut v: Vec<f64> = self.entries.lock().iter().map(|e| e.latency_ms).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(|a, b| a.total_cmp(b));
        let rank = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v.get(rank.min(v.len() - 1)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let log = WebLog::new(100);
        log.record(0.0, "/rest/v1/materials/Fe2O3/vasp/energy", 300, 1);
        log.record(1.0, "/rest/v1/materials", 500, 40);
        assert_eq!(log.entries().len(), 2);
        assert_eq!(log.total_records(), 41);
    }

    #[test]
    fn latency_in_paper_regime() {
        // The default model puts typical queries at a few hundred ms.
        let log = WebLog::new(100);
        for i in 0..50 {
            log.record(i as f64, "/q", 400, 10);
        }
        let med = log.percentile_ms(50.0).unwrap();
        assert!(med > 150.0 && med < 500.0, "median {med} ms");
    }

    #[test]
    fn histogram_mode_and_tail() {
        let log = WebLog::new(10_000);
        for i in 0..500 {
            log.record(i as f64, "/q", 300, 5);
        }
        let hist = log.histogram_ms(&[100.0, 250.0, 500.0, 1000.0, 2000.0]);
        // Mode in the few-hundred-ms bucket; small multi-second tail
        // from the periodic fault penalty.
        let mode_idx = hist
            .iter()
            .enumerate()
            .max_by_key(|(_, (_, c))| *c)
            .map(|(i, _)| i)
            .unwrap();
        assert!(
            mode_idx == 1 || mode_idx == 2,
            "mode bucket {mode_idx}: {hist:?}"
        );
        let tail: usize = hist[4..].iter().map(|(_, c)| c).sum();
        assert!(tail > 0 && tail < 25, "tail {tail}");
    }

    #[test]
    fn ring_buffer_capacity() {
        // Twice the capacity: the first half is evicted, the retained
        // window is the second half in order, and sequence numbers keep
        // counting across evictions.
        let capacity = 64;
        let log = WebLog::new(capacity);
        for i in 0..2 * capacity {
            log.record(i as f64, "/q", 100, 1);
        }
        let kept = log.entries();
        assert_eq!(kept.len(), capacity);
        for (k, e) in kept.iter().enumerate() {
            assert_eq!(e.seq, (capacity + k) as u64);
            assert_eq!(e.time, (capacity + k) as f64);
        }
        assert_eq!(log.time_series().len(), capacity);
    }

    #[test]
    fn time_series_ordering() {
        let log = WebLog::new(100);
        for i in 0..10 {
            log.record(i as f64 * 2.0, "/q", 100, 1);
        }
        let ts = log.time_series();
        assert_eq!(ts.len(), 10);
        assert!(ts.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
