//! Order statistics over latency samples.

/// Latency samples of one operation class, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (nearest rank), in nanoseconds; 0 when empty.
    pub fn percentile_ns(&mut self, p: f64) -> f64 {
        self.sort();
        if self.ns.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.ns.len() as f64).ceil() as usize;
        self.ns[rank.clamp(1, self.ns.len()) - 1] as f64
    }

    pub fn median_ns(&mut self) -> f64 {
        self.percentile_ns(50.0)
    }

    /// The tail this sample supports: the `want`-th percentile when at
    /// least ten samples lie beyond it, otherwise the highest percentile
    /// that has ten beyond it (the median when there are under twenty).
    /// Returns (percentile used, value in ns).
    pub fn tail_ns(&mut self, want: f64) -> (f64, f64) {
        let n = self.ns.len() as f64;
        let supported = if n >= 20.0 {
            (100.0 * (n - 10.0) / n).min(want)
        } else {
            50.0
        };
        (supported, self.percentile_ns(supported))
    }
}

/// Median of a handful of floats (set-up times, reopen times).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.push(v);
        }
        assert_eq!(s.median_ns(), 50.0);
        assert_eq!(s.percentile_ns(99.0), 99.0);
    }

    #[test]
    fn tail_backs_off_until_ten_samples_lie_beyond() {
        let mut s = Samples::default();
        for v in 1..=200 {
            s.push(v);
        }
        // 200 samples: p99 has only 2 beyond it; p95 has exactly 10.
        assert_eq!(s.tail_ns(99.0), (95.0, 190.0));
        for v in 201..=2000 {
            s.push(v);
        }
        assert_eq!(s.tail_ns(99.0), (99.0, 1980.0));
    }
}
