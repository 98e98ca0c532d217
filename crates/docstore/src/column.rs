//! Scan segments: what a collection scan reads through (DESIGN §16).
//!
//! A [`Segment`] is an immutable snapshot of a collection's document
//! handles in store order, plus lazily built `f64` columns for the
//! paths COLLSCAN filters bound numerically. It belongs to one write
//! generation: the first COLLSCAN after a write builds it, every later
//! one shares it by cloning one `Arc`, and the next write drops it (the
//! `Store::bump_version` hook) — nothing is maintained incrementally.
//!
//! A column holds, per row, the number at its path when the path
//! resolves through plain objects to a JSON number, and `NaN`
//! ("undecided") for everything else: missing, `null`, a string, an
//! array, a path that crosses an array, an integer no `f64` holds
//! exactly. A [`Walk`] over the candidates skips a row only when a
//! column *proves* a top-level conjunct cannot match it; a `NaN` row
//! always survives, and [`CompiledFilter::matches`] still decides every
//! survivor. A column can remove work, never change an answer.

use crate::journal::Shared;
use crate::profiler::Profiler;
use crate::query::{CompiledFilter, NumericBound};
use crate::value::{exact_f64, Docs, Document, Path};
use serde_json::Value;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Columns one segment will build. API callers choose the filter paths,
/// so the count is capped; a path past the cap scans unpruned.
const MAX_COLUMNS: usize = 8;

/// One generation's scan snapshot of a collection.
pub(crate) struct Segment {
    docs: Docs,
    /// Filled front to back, each slot once: the path, then its column.
    columns: [OnceLock<(String, Arc<[f64]>)>; MAX_COLUMNS],
}

impl Segment {
    pub(crate) fn new(docs: Docs) -> Self {
        Segment {
            docs,
            columns: Default::default(),
        }
    }

    /// The generation's document handles, in store order.
    pub(crate) fn docs(&self) -> &[Arc<Document>] {
        &self.docs
    }

    /// The column for `path`, built on first request. `None` when no
    /// document holds a plain number there — such a column would prune
    /// nothing, so it takes no slot from a path that has numbers — or
    /// once [`MAX_COLUMNS`] other paths hold every slot
    /// (`column.cap_hit`). A slot being built blocks a concurrent
    /// request instead of building twice.
    fn column(&self, path: &Path, profiler: &Profiler) -> Option<Arc<[f64]>> {
        for slot in &self.columns {
            if slot.get().is_none() && !self.has_numbers_at(path) {
                return None;
            }
            let (held, col) = slot.get_or_init(|| {
                profiler.bump("column.build");
                (path.as_str().to_string(), build_column(&self.docs, path))
            });
            if held == path.as_str() {
                return Some(Arc::clone(col));
            }
        }
        profiler.bump("column.cap_hit");
        None
    }

    /// The paths that hold a slot so far.
    fn held(&self) -> Vec<&str> {
        self.columns
            .iter()
            .map_while(|slot| slot.get().map(|(held, _)| held.as_str()))
            .collect()
    }

    /// Whether a column for `path` could prune anything. Stops at the
    /// first plain number, which a path worth a column has early.
    fn has_numbers_at(&self, path: &Path) -> bool {
        self.docs.iter().any(|d| !plain_number(d, path).is_nan())
    }
}

fn build_column(docs: &[Arc<Document>], path: &Path) -> Arc<[f64]> {
    docs.iter().map(|d| plain_number(d, path)).collect()
}

/// The number at `path` when every step is an object key and the value
/// is a JSON number — the one shape for which a comparison predicate
/// sees exactly this value (no array traversal, no second candidate) and
/// an `f64` holds it exactly ([`exact_f64`]) — else `NaN`.
fn plain_number(doc: &Value, path: &Path) -> f64 {
    let mut cur = doc;
    for seg in path.segs() {
        match cur {
            Value::Object(m) => match m.get_field(&seg.key) {
                Some(v) => cur = v,
                None => return f64::NAN,
            },
            _ => return f64::NAN,
        }
    }
    match cur {
        Value::Number(n) => exact_f64(n).unwrap_or(f64::NAN),
        _ => f64::NAN,
    }
}

enum Rows {
    /// Handles cloned out of the store: an index plan's candidates, or a
    /// caller's own stream.
    Handles(Docs),
    /// The whole collection, shared.
    Scan(Arc<Segment>),
    /// The whole collection, this many rows, for `explain` to describe
    /// when no scan has built the generation's segment yet: no rows to
    /// iterate.
    Unscanned(usize),
}

/// What one planned read will run its filter over: rows in store order,
/// less those a column rules out as a walk reaches them. Walks of
/// different row ranges may run on different threads at once.
pub(crate) struct Candidates {
    rows: Rows,
    /// Each bounded path's column, with the bound a row's value in it
    /// must pass; empty for anything but a scan with columns to test.
    bounds: Vec<(Arc<[f64]>, NumericBound)>,
    /// Rows the walks reached and a column ruled out, each walk's count
    /// added once, when it drops; added to the profiler's
    /// `column.rows_pruned` when the candidates are dropped.
    pruned: AtomicU64,
    /// Whose profiler that is: the collection's, set by `prune` when
    /// there are bounds to test.
    report: Option<Arc<Shared>>,
}

impl From<Docs> for Candidates {
    fn from(docs: Docs) -> Self {
        Candidates::of(Rows::Handles(docs))
    }
}

impl Candidates {
    fn of(rows: Rows) -> Self {
        Candidates {
            rows,
            bounds: Vec::new(),
            pruned: AtomicU64::new(0),
            report: None,
        }
    }

    /// A full scan through `seg`.
    pub(crate) fn scan(seg: Arc<Segment>) -> Self {
        Candidates::of(Rows::Scan(seg))
    }

    /// The description of a full scan over `n` rows (see
    /// [`Rows::Unscanned`]).
    pub(crate) fn unscanned(n: usize) -> Self {
        Candidates::of(Rows::Unscanned(n))
    }

    /// Rows the plan examines, before any pruning.
    pub(crate) fn examined(&self) -> usize {
        match self.rows {
            Rows::Unscanned(n) => n,
            _ => self.as_slice().len(),
        }
    }

    /// Whether the rows are the generation's shared scan segment (not
    /// an index plan's handles, nor a caller's stream).
    pub(crate) fn is_scan(&self) -> bool {
        matches!(self.rows, Rows::Scan(_))
    }

    /// Paths of `cf` a scan tests against a column: those that hold a
    /// slot, then as many more as slots are free. (A path at which no
    /// document holds a plain number has nothing to test and takes no
    /// slot; it is listed all the same.)
    pub(crate) fn pruned_by<'f>(&self, cf: &'f CompiledFilter) -> Vec<&'f str> {
        let held = match &self.rows {
            Rows::Handles(_) => return Vec::new(),
            Rows::Scan(seg) => seg.held(),
            Rows::Unscanned(_) => Vec::new(),
        };
        let mut free = MAX_COLUMNS - held.len();
        cf.numeric_bounds()
            .map(|(path, _)| path.as_str())
            .filter(|path| {
                let fits = held.contains(path) || free > 0;
                free -= usize::from(fits && !held.contains(path));
                fits
            })
            .collect()
    }

    /// Test every bounded path of `cf` that has a column as the walk
    /// reaches each row, and report what that rules out to `shared`'s
    /// profiler. No row is read here.
    pub(crate) fn prune(mut self, cf: &CompiledFilter, shared: &Arc<Shared>) -> Self {
        let Rows::Scan(seg) = &self.rows else {
            return self;
        };
        self.bounds = (cf.numeric_bounds())
            .filter_map(|(path, bound)| Some((seg.column(path, &shared.profiler)?, bound)))
            .collect();
        self.report = (!self.bounds.is_empty()).then(|| Arc::clone(shared));
        self
    }

    /// The rows every column bound admits, in store order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> Walk<'_> {
        self.walk(0..self.examined())
    }

    /// The rows of `rows` every column bound admits, in store order,
    /// lazily: a consumer that stops early tests no further row.
    pub(crate) fn walk(&self, rows: Range<usize>) -> Walk<'_> {
        Walk {
            of: self,
            docs: self.as_slice(),
            rows,
            pruned: 0,
        }
    }

    /// Whether every column bound admits `row`'s value.
    fn admits(&self, row: usize) -> bool {
        (self.bounds.iter()).all(|(col, bound)| col.get(row).is_none_or(|x| bound.admits(*x)))
    }

    /// Every row, before any pruning, as one slice.
    fn as_slice(&self) -> &[Arc<Document>] {
        match &self.rows {
            Rows::Handles(docs) => docs,
            Rows::Scan(seg) => &seg.docs,
            Rows::Unscanned(_) => &[],
        }
    }
}

impl Drop for Candidates {
    fn drop(&mut self) {
        if let (Some(shared), n @ 1..) = (&self.report, *self.pruned.get_mut()) {
            shared.profiler.add("column.rows_pruned", n);
        }
    }
}

/// One walk over a range of [`Candidates`]' rows: a morsel of a scan,
/// or all of them. It counts the rows a column rules out itself and
/// adds the count to the candidates' once, when it drops, so walks on
/// several threads share no counter row by row.
pub(crate) struct Walk<'a> {
    of: &'a Candidates,
    docs: &'a [Arc<Document>],
    rows: Range<usize>,
    pruned: u64,
}

impl<'a> Iterator for Walk<'a> {
    type Item = &'a Arc<Document>;

    fn next(&mut self) -> Option<&'a Arc<Document>> {
        for row in self.rows.by_ref() {
            if self.of.admits(row) {
                return self.docs.get(row);
            }
            self.pruned += 1;
        }
        None
    }
}

impl Drop for Walk<'_> {
    fn drop(&mut self) {
        if self.pruned > 0 {
            self.of.pruned.fetch_add(self.pruned, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Filter;
    use serde_json::json;

    fn seg(docs: Vec<Value>) -> Arc<Segment> {
        Arc::new(Segment::new(crate::value::to_docs(docs)))
    }

    fn compiled(q: Value) -> CompiledFilter {
        Filter::parse(&q).unwrap().compile()
    }

    /// Rows the walk yields; dropping the candidates then reports what
    /// it ruled out.
    fn walked(c: Candidates) -> usize {
        c.iter().count()
    }

    #[test]
    fn column_holds_plain_numbers_and_nan_for_everything_else() {
        let s = seg(vec![
            json!({"a": {"x": 3}}),
            json!({"a": {"x": 2.5}}),
            json!({"a": {"x": 9_007_199_254_740_993u64}}),
            json!({"a": {"x": "3"}}),
            json!({"a": {"x": null}}),
            json!({"a": {"x": [1, 2]}}),
            json!({"a": [{"x": 1}]}),
            json!({"b": 1}),
        ]);
        let cf = compiled(json!({"a.x": {"$gt": 0}}));
        let (path, _) = cf.numeric_bounds().next().unwrap();
        let col = s.column(path, &Profiler::new(8)).unwrap();
        // 2^53 + 1 has no exact `f64`: undecided, like a non-number.
        assert_eq!(col[..2], [3.0, 2.5]);
        assert!(col[2..].iter().all(|x| x.is_nan()), "{col:?}");
    }

    #[test]
    fn prune_keeps_undecided_rows() {
        let s = seg(vec![
            json!({"n": 1}),
            json!({"n": 5}),
            json!({"n": [9, 1]}),
            json!({"m": 5}),
            json!({"n": 7}),
        ]);
        let shared = Arc::new(Shared::new());
        let prof = &shared.profiler;
        let cf = compiled(json!({"n": {"$gte": 5}}));
        let pruned = Candidates::scan(Arc::clone(&s)).prune(&cf, &shared);
        assert_eq!(pruned.examined(), 5);
        let kept: Vec<&Value> = pruned.iter().map(|d| &**d).collect();
        assert_eq!(
            kept,
            [
                &json!({"n": 5}),
                &json!({"n": [9, 1]}),
                &json!({"m": 5}),
                &json!({"n": 7})
            ]
        );
        drop(pruned);
        assert_eq!(prof.counter("column.build"), 1);
        assert_eq!(prof.counter("column.rows_pruned"), 1);
        // A second bounded path is tested on the same walk.
        let both = compiled(json!({"n": {"$gte": 5}, "m": {"$lt": 0}}));
        let pruned = Candidates::scan(s).prune(&both, &shared);
        assert_eq!(walked(pruned), 3, "rows 1 and 4 have no `m`: undecided");
        assert_eq!(prof.counter("column.build"), 2);
        assert_eq!(prof.counter("column.rows_pruned"), 3);
    }

    /// A walk that stops early tests no row past the one it stopped at,
    /// and counts only the rows it ruled out on the way.
    #[test]
    fn a_stopped_walk_counts_what_it_reached() {
        let s = seg((0..100).map(|i| json!({"n": i % 2})).collect());
        let shared = Arc::new(Shared::new());
        let c = Candidates::scan(s).prune(&compiled(json!({"n": {"$lt": 1}})), &shared);
        assert_eq!(c.iter().take(3).count(), 3);
        assert_eq!(
            c.pruned.load(Ordering::Relaxed),
            2,
            "rows 1 and 3 ruled out, row 5 not reached"
        );
        drop(c);
        assert_eq!(shared.profiler.counter("column.rows_pruned"), 2);
    }

    fn lt2(path: &str) -> CompiledFilter {
        compiled(json!({ path: {"$lt": 2} }))
    }

    #[test]
    fn the_ninth_path_scans_unpruned() {
        let row = |i: i64| {
            Value::Object(
                (0..=MAX_COLUMNS)
                    .map(|k| (format!("p{k}"), json!(i)))
                    .collect(),
            )
        };
        let s = seg((0..4).map(row).collect());
        let shared = Arc::new(Shared::new());
        let prof = &shared.profiler;
        for k in 0..MAX_COLUMNS {
            let cf = lt2(&format!("p{k}"));
            let c = Candidates::scan(Arc::clone(&s));
            assert_eq!(c.pruned_by(&cf).len(), 1, "p{k} fits");
            assert_eq!(walked(c.prune(&cf, &shared)), 2);
        }
        assert_eq!(prof.counter("column.cap_hit"), 0);
        let ninth = lt2(&format!("p{MAX_COLUMNS}"));
        let c = Candidates::scan(Arc::clone(&s));
        assert!(c.pruned_by(&ninth).is_empty());
        assert_eq!(walked(c.prune(&ninth, &shared)), 4, "no column, no pruning");
        assert_eq!(prof.counter("column.build"), MAX_COLUMNS as u64);
        assert_eq!(prof.counter("column.cap_hit"), 1);
        // A path that already holds a slot still prunes.
        assert_eq!(walked(Candidates::scan(s).prune(&lt2("p0"), &shared)), 2);
        assert_eq!(
            prof.counter("column.rows_pruned"),
            2 * (MAX_COLUMNS as u64 + 1)
        );
    }

    /// Callers choose the paths: ones that name nothing numeric must not
    /// take the slots of the ones that do.
    #[test]
    fn a_path_without_numbers_takes_no_slot() {
        let s = seg((0..4)
            .map(|i| json!({"n": i, "s": "x", "a": [i]}))
            .collect());
        let shared = Arc::new(Shared::new());
        let prof = &shared.profiler;
        for path in ["missing", "s", "a", "n.deeper"]
            .iter()
            .cycle()
            .take(3 * MAX_COLUMNS)
        {
            let c = Candidates::scan(Arc::clone(&s)).prune(&lt2(path), &shared);
            assert_eq!(walked(c), 4, "{path}: nothing proven");
        }
        assert_eq!(prof.counter("column.build"), 0);
        assert!(s.held().is_empty());
        let c = Candidates::scan(Arc::clone(&s)).prune(&lt2("n"), &shared);
        assert_eq!(walked(c), 2);
        assert_eq!((s.held(), prof.counter("column.cap_hit")), (vec!["n"], 0));
    }

    #[test]
    fn an_unscanned_set_describes_a_fresh_segment() {
        let c = Candidates::unscanned(7);
        assert_eq!((c.examined(), c.iter().count()), (7, 0));
        let wide = Value::Object(
            (0..=MAX_COLUMNS)
                .map(|k| (format!("p{k}"), json!({"$lt": 2})))
                .collect(),
        );
        assert_eq!(c.pruned_by(&compiled(wide)).len(), MAX_COLUMNS);
        let shared = Arc::new(Shared::new());
        assert_eq!(walked(c.prune(&lt2("p0"), &shared)), 0);
    }
}
