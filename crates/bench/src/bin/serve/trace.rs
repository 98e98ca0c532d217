//! Spans recorded from outside the program, around calls into each
//! layer. A traced request times its root call, then replays the same
//! arguments against each inner public function on a twin instance; the
//! inner spans name the root (or each other) as `parent`, so a layer's
//! self time is its span minus its children. Spans stay in memory and
//! are written as JSON lines when the run ends.

use crate::stats::Samples;
use serde_json::json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The sampled request this span belongs to.
    pub request: u64,
    /// Request class, so budgets are kept per class.
    pub class: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span buffer; times are offsets from its creation.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span; returns the span id (to parent others on)
    /// and `f`'s result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        class: &'static str,
        request: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (self.record(name, class, request, parent, start, end), out)
    }

    /// Record a span the caller timed itself; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        class: &'static str,
        request: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            class,
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        id
    }

    /// Append another thread's spans, re-numbered after ours and moved
    /// onto our clock.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let later = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        let earlier = self.epoch.saturating_duration_since(other.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s.start_ns = (s.start_ns + later).saturating_sub(earlier);
            s.end_ns = (s.end_ns + later).saturating_sub(earlier);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span called `name`, in `class` when given.
    pub fn durations(&self, class: Option<&str>, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.named(class, name) {
            out.push(s.dur());
        }
        out
    }

    fn named<'a>(
        &'a self,
        class: Option<&'a str>,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.name == name && class.is_none_or(|c| s.class == c))
    }

    /// Per span: its duration minus its children's, floored at zero.
    fn span_self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur();
            }
        }
        self.spans
            .iter()
            .map(|s| s.dur().saturating_sub(child_ns[s.id as usize]))
            .collect()
    }

    /// Self times of every span called `name`, in `class` when given.
    pub fn selfs(&self, class: Option<&str>, name: &str) -> Samples {
        let self_ns = self.span_self_ns();
        let mut out = Samples::default();
        for s in self.named(class, name) {
            out.push(self_ns[s.id as usize]);
        }
        out
    }

    /// The overshoot check of `class`: the median, over its `root`
    /// spans, of Σ self time of every span in the root's tree ÷ the
    /// root's duration. The root's own self time is what its children
    /// leave (floored at zero), so the ratio is 1.0 whenever the replayed
    /// children fit inside the real call and above it by as much as the
    /// twins overshoot it — which says they took another path than the
    /// root did. It cannot read below 1. Free-standing probes (no parent,
    /// another name) measure a part of some self time and are left out.
    pub fn layer_sum_ratio(&self, class: &str, root: &str) -> f64 {
        const NONE: u32 = u32::MAX;
        // Parents are recorded before their children.
        let mut root_of = vec![NONE; self.spans.len()];
        for s in &self.spans {
            root_of[s.id as usize] = match s.parent {
                None if s.name == root && s.class == class => s.id,
                None => NONE,
                Some(p) => root_of[p as usize],
            };
        }
        let mut tree_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.span_self_ns()) {
            if root_of[s.id as usize] != NONE {
                *tree_ns.entry(root_of[s.id as usize]).or_default() += self_ns;
            }
        }
        let ratios = tree_ns
            .iter()
            .map(|(root, ns)| *ns as f64 / self.spans[*root as usize].dur().max(1) as f64)
            .collect();
        crate::stats::median(ratios)
    }

    /// Write every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = json!({
                "id": s.id, "parent": s.parent, "request": s.request, "class": s.class,
                "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
            });
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(t: &mut Tracer, name: &'static str, parent: Option<u32>, dur: u64) -> u32 {
        let id = t.spans.len() as u32;
        t.spans.push(Span {
            id,
            parent,
            request: 0,
            class: "lookup",
            name,
            start_ns: 0,
            end_ns: dur,
        });
        id
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let root = push(&mut t, "api.handle", None, 100);
        push(&mut t, "mapi.admit", Some(root), 10);
        let qc = push(&mut t, "mapi.query_cached", Some(root), 60);
        push(&mut t, "docstore.find_with", Some(qc), 45);
        push(&mut t, "mapi.weblog_record", None, 7);
        assert_eq!(t.selfs(Some("lookup"), "api.handle").median_ns(), 30.0);
        assert_eq!(t.selfs(None, "mapi.query_cached").median_ns(), 15.0);
        assert_eq!(t.selfs(Some("bulk"), "mapi.query_cached").len(), 0);
        assert_eq!(t.selfs(None, "mapi.weblog_record").median_ns(), 7.0);
        // 30 + 10 + 15 + 45 = 100; the free-standing probe is left out.
        assert!((t.layer_sum_ratio("lookup", "api.handle") - 1.0).abs() < 1e-9);
        // A replayed child slower than its parent overshoots the budget.
        push(&mut t, "docstore.find_with", Some(qc), 45);
        assert!((t.layer_sum_ratio("lookup", "api.handle") - 1.3).abs() < 1e-9);
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let mut a = Tracer::new();
        push(&mut a, "api.handle", None, 5);
        let mut b = Tracer::new();
        let root = push(&mut b, "durable.insert_one", None, 9);
        push(&mut b, "docstore.insert_one", Some(root), 4);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(
            a.spans[2].end_ns - a.spans[2].start_ns,
            4,
            "durations survive the clock shift"
        );
    }
}
