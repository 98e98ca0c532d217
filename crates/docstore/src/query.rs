//! Query language: a faithful subset of MongoDB's find() filter documents.
//!
//! Filters are parsed from JSON into a [`Filter`] AST once, compiled once
//! ([`Filter::compile`]) and matched through the [`CompiledFilter`], the
//! store's one matcher; upsert's seed, the shard router and mp-lint read
//! the parsed form. The paper's job-selection example —
//! `{elements: {$all: ['Li','O']}, nelectrons: {$lte: 200}}` — runs
//! through exactly this code path. Its oracle is the test-only `mp-model`
//! crate, which shares no code with it (DESIGN §10 names where both
//! depart from MongoDB).

use crate::error::{Result, StoreError};
use crate::value::{cmp_values, exact_f64, type_name, type_rank, values_equal, Path};
use serde_json::Value;
use std::cmp::Ordering;
use std::ops::Bound;
use std::slice;

/// A single comparison applied to one field path.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Equality; if the stored value is an array, matches when any element
    /// equals the operand (MongoDB array-containment semantics).
    Eq(Value),
    Ne(Value),
    Gt(Value),
    Gte(Value),
    Lt(Value),
    Lte(Value),
    /// Value (or any array element) is one of the operands.
    In(Vec<Value>),
    /// Negation of `In`.
    Nin(Vec<Value>),
    /// Array field contains every operand.
    All(Vec<Value>),
    /// Array field has exactly this length.
    Size(usize),
    /// Field exists (true) or does not (false).
    Exists(bool),
    /// Field has the named BSON-ish type ("int", "double", "string", ...).
    Type(String),
    /// String field contains this substring (safe subset of `$regex`).
    Contains(String),
    /// String field starts with this prefix (anchored `$regex`).
    StartsWith(String),
    /// `field % divisor == remainder`.
    Mod(i64, i64),
    /// At least one array element matches the sub-filter.
    ElemMatch(Box<Filter>),
    /// Negation of a predicate set on the same field.
    Not(Vec<Predicate>),
}

/// A parsed filter document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Filter {
    /// Conjunction of per-field predicate lists (path, predicates).
    pub fields: Vec<(String, Vec<Predicate>)>,
    /// `$and` clauses.
    pub and: Vec<Filter>,
    /// `$or` clauses (at least one must match).
    pub or: Vec<Filter>,
    /// `$nor` clauses (none may match).
    pub nor: Vec<Filter>,
}

impl Filter {
    /// The empty filter, matching every document.
    pub fn empty() -> Self {
        Filter::default()
    }

    /// True when this filter matches everything.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty() && self.and.is_empty() && self.or.is_empty() && self.nor.is_empty()
    }

    /// Parse a JSON filter document.
    pub fn parse(q: &Value) -> Result<Filter> {
        let obj = q.as_object().ok_or_else(|| {
            StoreError::BadQuery(format!("filter must be object, got {}", type_name(q)))
        })?;
        let mut f = Filter::default();
        for (k, v) in obj {
            match k.as_str() {
                "$and" => f.and.extend(parse_clause_list(k, v)?),
                "$or" => f.or.extend(parse_clause_list(k, v)?),
                "$nor" => f.nor.extend(parse_clause_list(k, v)?),
                _ if k.starts_with('$') => {
                    return Err(StoreError::BadQuery(format!(
                        "unknown top-level operator {k}"
                    )))
                }
                path => {
                    let preds = parse_predicates(v)?;
                    f.fields.push((path.to_string(), preds));
                }
            }
        }
        Ok(f)
    }

    /// If this filter constrains `path` to a single equality value, return
    /// it (used for index selection).
    pub fn equality_on(&self, path: &str) -> Option<&Value> {
        for (p, preds) in &self.fields {
            if p == path {
                for pred in preds {
                    if let Predicate::Eq(v) = pred {
                        return Some(v);
                    }
                }
            }
        }
        None
    }

    /// All field paths this filter touches (for planning/diagnostics).
    pub fn touched_paths(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.fields.iter().map(|(p, _)| p.as_str()).collect();
        for sub in self.and.iter().chain(self.or.iter()).chain(self.nor.iter()) {
            out.extend(sub.touched_paths());
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Compile the filter for the zero-allocation match path: every dotted
    /// path is pre-split into segments and every `$in`/`$nin` operand list
    /// is pre-sorted for binary-search probes. `matches` on the compiled
    /// form allocates nothing per document. Parse once, compile once,
    /// share across shards and scan chunks.
    pub fn compile(&self) -> CompiledFilter {
        CompiledFilter {
            fields: self
                .fields
                .iter()
                .map(|(path, preds)| {
                    let preds = preds.iter().map(CompiledPredicate::from).collect();
                    (Path::new(path), preds)
                })
                .collect(),
            and: self.and.iter().map(Filter::compile).collect(),
            or: self.or.iter().map(Filter::compile).collect(),
            nor: self.nor.iter().map(Filter::compile).collect(),
        }
    }
}

/// The interval a filter's top-level conjuncts confine a plain number
/// at one path to — what a scan column is tested against (DESIGN §16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NumericBound {
    lo: f64,
    lo_open: bool,
    hi: f64,
    hi_open: bool,
}

impl NumericBound {
    const UNBOUNDED: NumericBound = NumericBound {
        lo: f64::NEG_INFINITY,
        lo_open: false,
        hi: f64::INFINITY,
        hi_open: false,
    };

    fn raise(&mut self, v: f64, open: bool) {
        if v > self.lo || (v == self.lo && open) {
            (self.lo, self.lo_open) = (v, open);
        }
    }

    fn lower(&mut self, v: f64, open: bool) {
        if v < self.hi || (v == self.hi && open) {
            (self.hi, self.hi_open) = (v, open);
        }
    }

    /// False only when `x` is a number outside the interval. `NaN` (no
    /// plain number in this row) fails every comparison and is admitted.
    pub(crate) fn admits(&self, x: f64) -> bool {
        !(x < self.lo
            || x > self.hi
            || (self.lo_open && x == self.lo)
            || (self.hi_open && x == self.hi))
    }
}

/// [`Predicate`] with per-document work hoisted to compile time: `$in`
/// and `$nin` carry their operands sorted under [`cmp_values`], so
/// membership is a binary search instead of a linear scan.
#[derive(Debug, Clone, PartialEq)]
enum CompiledPredicate {
    Eq(Value),
    Ne(Value),
    Gt(Value),
    Gte(Value),
    Lt(Value),
    Lte(Value),
    In(Vec<Value>),
    Nin(Vec<Value>),
    All(Vec<Value>),
    Size(usize),
    Exists(bool),
    Type(String),
    Contains(String),
    StartsWith(String),
    Mod(i64, i64),
    ElemMatch(Box<CompiledFilter>),
    Not(Vec<CompiledPredicate>),
}

impl From<&Predicate> for CompiledPredicate {
    fn from(p: &Predicate) -> Self {
        match p {
            Predicate::Eq(v) => CompiledPredicate::Eq(v.clone()),
            Predicate::Ne(v) => CompiledPredicate::Ne(v.clone()),
            Predicate::Gt(v) => CompiledPredicate::Gt(v.clone()),
            Predicate::Gte(v) => CompiledPredicate::Gte(v.clone()),
            Predicate::Lt(v) => CompiledPredicate::Lt(v.clone()),
            Predicate::Lte(v) => CompiledPredicate::Lte(v.clone()),
            Predicate::In(vs) => CompiledPredicate::In(sort_operands(vs)),
            Predicate::Nin(vs) => CompiledPredicate::Nin(sort_operands(vs)),
            Predicate::All(vs) => CompiledPredicate::All(vs.clone()),
            Predicate::Size(n) => CompiledPredicate::Size(*n),
            Predicate::Exists(b) => CompiledPredicate::Exists(*b),
            Predicate::Type(t) => CompiledPredicate::Type(t.clone()),
            Predicate::Contains(s) => CompiledPredicate::Contains(s.clone()),
            Predicate::StartsWith(s) => CompiledPredicate::StartsWith(s.clone()),
            Predicate::Mod(d, r) => CompiledPredicate::Mod(*d, *r),
            Predicate::ElemMatch(f) => CompiledPredicate::ElemMatch(Box::new(f.compile())),
            Predicate::Not(ps) => CompiledPredicate::Not(ps.iter().map(Self::from).collect()),
        }
    }
}

fn sort_operands(vs: &[Value]) -> Vec<Value> {
    let mut out = vs.to_vec();
    out.sort_by(cmp_values);
    out
}

/// Sorted-set membership with MongoDB equality semantics: true when the
/// stored value equals any operand, or (stored array, non-array operand)
/// any element does — one level: a nested array is an element, never
/// opened. `cmp_values == Equal` implies equal type ranks, so a
/// binary-search hit is exactly a [`values_equal`] hit, and an array
/// element can only ever equal a non-array operand when the element
/// itself is non-array. Equality is this over one operand.
fn in_sorted(sorted: &[Value], stored: &Value) -> bool {
    let found = |v: &Value| {
        sorted
            .binary_search_by(|probe| cmp_values(probe, v))
            .is_ok()
    };
    if found(stored) {
        return true;
    }
    if let Value::Array(a) = stored {
        return a.iter().any(|e| !e.is_array() && found(e));
    }
    false
}

/// A [`Filter`] compiled for repeated matching: the product of
/// [`Filter::compile`]. `matches` performs zero heap allocation per
/// document — paths are pre-split, numeric segments pre-parsed, and
/// `$in`/`$nin` membership is a binary search over pre-sorted operands.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledFilter {
    fields: Vec<(Path, Vec<CompiledPredicate>)>,
    and: Vec<CompiledFilter>,
    or: Vec<CompiledFilter>,
    nor: Vec<CompiledFilter>,
}

impl CompiledFilter {
    /// True when this filter matches everything.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty() && self.and.is_empty() && self.or.is_empty() && self.nor.is_empty()
    }

    /// Does `doc` satisfy this filter? The store's one matcher, with no
    /// per-document allocation; `mp-model` is its oracle in the tests.
    pub fn matches(&self, doc: &Value) -> bool {
        for (path, preds) in &self.fields {
            if !preds.iter().all(|p| match_compiled(doc, path, p)) {
                return false;
            }
        }
        if !self.and.iter().all(|c| c.matches(doc)) {
            return false;
        }
        if !self.or.is_empty() && !self.or.iter().any(|c| c.matches(doc)) {
            return false;
        }
        if self.nor.iter().any(|c| c.matches(doc)) {
            return false;
        }
        true
    }

    /// Compiled twin of [`Filter::equality_on`] (same contract), so the
    /// planner runs on the compiled form without re-parsing.
    pub fn equality_on(&self, path: &str) -> Option<&Value> {
        self.on(path).find_map(|pred| match pred {
            CompiledPredicate::Eq(v) => Some(v),
            _ => None,
        })
    }

    /// The top-level predicates on `path`, in filter order.
    fn on<'s, 'p>(
        &'s self,
        path: &'p str,
    ) -> impl Iterator<Item = &'s CompiledPredicate> + use<'s, 'p> {
        let fields = self.fields.iter().filter(move |(p, _)| p.as_str() == path);
        fields.flat_map(|(_, preds)| preds)
    }

    /// The operands of the first top-level `$in` on `path`, sorted:
    /// what an `$in` probe of an index on `path` looks up.
    pub(crate) fn in_on(&self, path: &str) -> Option<&[Value]> {
        self.on(path).find_map(|pred| match pred {
            CompiledPredicate::In(sorted) => Some(&sorted[..]),
            _ => None,
        })
    }

    /// The bounds the top-level `$gt`/`$gte` and `$lt`/`$lte` on `path`
    /// set (the last of a side wins; an open side is unbounded), or
    /// `None` without either: what a range probe of an index on `path`
    /// walks.
    pub(crate) fn range_on(&self, path: &str) -> Option<(Bound<&Value>, Bound<&Value>)> {
        let (mut lo, mut hi) = (Bound::Unbounded, Bound::Unbounded);
        for pred in self.on(path) {
            match pred {
                CompiledPredicate::Gt(v) => lo = Bound::Excluded(v),
                CompiledPredicate::Gte(v) => lo = Bound::Included(v),
                CompiledPredicate::Lt(v) => hi = Bound::Excluded(v),
                CompiledPredicate::Lte(v) => hi = Bound::Included(v),
                _ => {}
            }
        }
        (!matches!((lo, hi), (Bound::Unbounded, Bound::Unbounded))).then_some((lo, hi))
    }

    /// Every top-level path that `$eq`/`$gt`/`$gte`/`$lt`/`$lte` with a
    /// numeric operand bound, with the intersection of those bounds.
    /// Each such predicate is a conjunct of the whole filter, and a
    /// column holds a plain number only where an `f64` holds it exactly,
    /// so a plain number outside the interval cannot match whatever else
    /// the filter says. An operand no `f64` holds exactly
    /// ([`exact_f64`]) is skipped: rounded, it would move the bound past
    /// numbers that match.
    pub(crate) fn numeric_bounds(&self) -> impl Iterator<Item = (&Path, NumericBound)> {
        self.fields.iter().filter_map(|(path, preds)| {
            let mut b = NumericBound::UNBOUNDED;
            for pred in preds {
                // (raises the low end, lowers the high end, open, operand)
                let (raise, lower, open, n) = match pred {
                    CompiledPredicate::Eq(Value::Number(n)) => (true, true, false, n),
                    CompiledPredicate::Gt(Value::Number(n)) => (true, false, true, n),
                    CompiledPredicate::Gte(Value::Number(n)) => (true, false, false, n),
                    CompiledPredicate::Lt(Value::Number(n)) => (false, true, true, n),
                    CompiledPredicate::Lte(Value::Number(n)) => (false, true, false, n),
                    _ => continue,
                };
                let Some(v) = exact_f64(n) else { continue };
                if raise {
                    b.raise(v, open);
                }
                if lower {
                    b.lower(v, open);
                }
            }
            (b != NumericBound::UNBOUNDED).then_some((path, b))
        })
    }

    /// Compiled twin of [`Filter::touched_paths`] (same contract).
    pub fn touched_paths(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.fields.iter().map(|(p, _)| p.as_str()).collect();
        for sub in self.and.iter().chain(self.or.iter()).chain(self.nor.iter()) {
            out.extend(sub.touched_paths());
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Match one predicate against the values reachable at `path`: a
/// document matches when *any* reachable value (array elements included)
/// satisfies the predicate, and `$ne`/`$nin`/`$not` when *none* does.
/// The reachable-value walk runs as a borrowing visitor
/// ([`Path::any`]), allocating nothing.
fn match_compiled(doc: &Value, path: &Path, pred: &CompiledPredicate) -> bool {
    match pred {
        CompiledPredicate::Exists(want) => {
            let exists = path.any(doc, &mut |_| true) || path.get(doc).is_some();
            exists == *want
        }
        CompiledPredicate::Ne(operand) => {
            !path.any(doc, &mut |v| in_sorted(slice::from_ref(operand), v))
        }
        CompiledPredicate::Nin(sorted) => !path.any(doc, &mut |v| in_sorted(sorted, v)),
        CompiledPredicate::Not(preds) => !preds.iter().all(|p| match_compiled(doc, path, p)),
        _ => path.any(doc, &mut |v| match_compiled_single(v, pred)),
    }
}

fn match_compiled_single(stored: &Value, pred: &CompiledPredicate) -> bool {
    match pred {
        CompiledPredicate::Eq(operand) => in_sorted(slice::from_ref(operand), stored),
        CompiledPredicate::Gt(o) => ordered(stored, o, Ordering::is_gt),
        CompiledPredicate::Gte(o) => ordered(stored, o, Ordering::is_ge),
        CompiledPredicate::Lt(o) => ordered(stored, o, Ordering::is_lt),
        CompiledPredicate::Lte(o) => ordered(stored, o, Ordering::is_le),
        CompiledPredicate::In(sorted) => in_sorted(sorted, stored),
        CompiledPredicate::All(set) => match stored {
            Value::Array(a) => set.iter().all(|s| a.iter().any(|e| values_equal(e, s))),
            single => matches!(&set[..], [only] if values_equal(single, only)),
        },
        CompiledPredicate::Size(n) => stored.as_array().map(|a| a.len() == *n).unwrap_or(false),
        CompiledPredicate::Type(t) => type_name(stored) == t,
        CompiledPredicate::Contains(s) => stored.as_str().map(|x| x.contains(s)).unwrap_or(false),
        CompiledPredicate::StartsWith(s) => {
            matches!(stored, Value::String(x) if x.as_bytes().starts_with(s.as_bytes()))
        }
        CompiledPredicate::Mod(d, r) => stored
            .as_i64()
            .map(|x| x.rem_euclid(*d) == (*r).rem_euclid(*d))
            .unwrap_or(false),
        CompiledPredicate::ElemMatch(cf) => stored
            .as_array()
            .map(|a| a.iter().any(|e| cf.matches(e)))
            .unwrap_or(false),
        // Handled in match_compiled:
        CompiledPredicate::Ne(_)
        | CompiledPredicate::Nin(_)
        | CompiledPredicate::Exists(_)
        | CompiledPredicate::Not(_) => false,
    }
}

/// Does `stored` compare to `operand` as `want` asks? Only values of one
/// type class compare (numbers with numbers, strings with strings), as
/// in MongoDB. A stored array compares whole with an array operand, and
/// with any other by its elements, one level deep: a nested array is an
/// element, never opened — as equality and `$in` treat it, and as an
/// index holds it.
fn ordered(stored: &Value, operand: &Value, want: fn(Ordering) -> bool) -> bool {
    let compares = |v: &Value| type_rank(v) == type_rank(operand) && want(cmp_values(v, operand));
    compares(stored)
        || matches!(stored, Value::Array(a) if a.iter().any(|e| !e.is_array() && compares(e)))
}

fn parse_clause_list(op: &str, v: &Value) -> Result<Vec<Filter>> {
    let arr = v
        .as_array()
        .ok_or_else(|| StoreError::BadQuery(format!("{op} expects an array")))?;
    if arr.is_empty() {
        return Err(StoreError::BadQuery(format!("{op} must be non-empty")));
    }
    arr.iter().map(Filter::parse).collect()
}

/// Parse the right-hand side of a field constraint: either an operator
/// object (`{"$lte": 200}`) or a literal equality value.
fn parse_predicates(v: &Value) -> Result<Vec<Predicate>> {
    if let Some(obj) = v.as_object() {
        let has_ops = obj.keys().any(|k| k.starts_with('$'));
        if has_ops {
            if let Some(bad) = obj.keys().find(|k| !k.starts_with('$')) {
                return Err(StoreError::BadQuery(format!(
                    "cannot mix operator and literal key '{bad}'"
                )));
            }
            let mut preds = Vec::with_capacity(obj.len());
            for (op, operand) in obj {
                preds.push(parse_operator(op, operand)?);
            }
            return Ok(preds);
        }
    }
    Ok(vec![Predicate::Eq(v.clone())])
}

fn expect_array(op: &str, v: &Value) -> Result<Vec<Value>> {
    v.as_array()
        .cloned()
        .ok_or_else(|| StoreError::BadQuery(format!("{op} expects an array")))
}

fn parse_operator(op: &str, v: &Value) -> Result<Predicate> {
    Ok(match op {
        "$eq" => Predicate::Eq(v.clone()),
        "$ne" => Predicate::Ne(v.clone()),
        "$gt" => Predicate::Gt(v.clone()),
        "$gte" => Predicate::Gte(v.clone()),
        "$lt" => Predicate::Lt(v.clone()),
        "$lte" => Predicate::Lte(v.clone()),
        "$in" => Predicate::In(expect_array(op, v)?),
        "$nin" => Predicate::Nin(expect_array(op, v)?),
        "$all" => Predicate::All(expect_array(op, v)?),
        "$size" => {
            Predicate::Size(v.as_u64().ok_or_else(|| {
                StoreError::BadQuery("$size expects a non-negative integer".into())
            })? as usize)
        }
        "$exists" => Predicate::Exists(
            v.as_bool()
                .ok_or_else(|| StoreError::BadQuery("$exists expects a bool".into()))?,
        ),
        "$type" => Predicate::Type(
            v.as_str()
                .ok_or_else(|| StoreError::BadQuery("$type expects a type name string".into()))?
                .to_string(),
        ),
        "$contains" => Predicate::Contains(
            v.as_str()
                .ok_or_else(|| StoreError::BadQuery("$contains expects a string".into()))?
                .to_string(),
        ),
        "$regex" => {
            // Safe subset: '^literal' prefix anchors, otherwise substring.
            let s = v
                .as_str()
                .ok_or_else(|| StoreError::BadQuery("$regex expects a string".into()))?;
            if let Some(prefix) = s.strip_prefix('^') {
                Predicate::StartsWith(prefix.to_string())
            } else {
                Predicate::Contains(s.to_string())
            }
        }
        "$mod" => {
            let arr = expect_array(op, v)?;
            let [dv, rv] = &arr[..] else {
                return Err(StoreError::BadQuery(
                    "$mod expects [divisor, remainder]".into(),
                ));
            };
            let d = dv
                .as_i64()
                .ok_or_else(|| StoreError::BadQuery("$mod divisor must be integer".into()))?;
            if d == 0 {
                return Err(StoreError::BadQuery("$mod divisor must be nonzero".into()));
            }
            let r = rv
                .as_i64()
                .ok_or_else(|| StoreError::BadQuery("$mod remainder must be integer".into()))?;
            Predicate::Mod(d, r)
        }
        "$elemMatch" => Predicate::ElemMatch(Box::new(Filter::parse(v)?)),
        "$not" => Predicate::Not(parse_predicates(v)?),
        other => return Err(StoreError::BadQuery(format!("unknown operator {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn matches(q: Value, doc: Value) -> bool {
        Filter::parse(&q).unwrap().compile().matches(&doc)
    }

    #[test]
    fn paper_job_selection_query() {
        // The exact query from §III-B2 of the paper.
        let q = json!({"elements": {"$all": ["Li", "O"]}, "nelectrons": {"$lte": 200}});
        let hit = json!({"elements": ["Li", "Fe", "O"], "nelectrons": 120});
        let miss_el = json!({"elements": ["Na", "O"], "nelectrons": 120});
        let miss_ne = json!({"elements": ["Li", "O"], "nelectrons": 300});
        assert!(matches(q.clone(), hit));
        assert!(!matches(q.clone(), miss_el));
        assert!(!matches(q, miss_ne));
    }

    #[test]
    fn literal_equality() {
        assert!(matches(json!({"a": 1}), json!({"a": 1})));
        assert!(matches(json!({"a": 1}), json!({"a": 1.0})));
        assert!(!matches(json!({"a": 1}), json!({"a": 2})));
        assert!(!matches(json!({"a": 1}), json!({"b": 1})));
    }

    #[test]
    fn equality_matches_array_containment() {
        assert!(matches(json!({"tags": "x"}), json!({"tags": ["x", "y"]})));
        assert!(!matches(json!({"tags": "z"}), json!({"tags": ["x", "y"]})));
    }

    #[test]
    fn dotted_path_equality() {
        assert!(matches(json!({"a.b": 2}), json!({"a": {"b": 2}})));
        assert!(!matches(json!({"a.b": 2}), json!({"a": {"b": 3}})));
    }

    #[test]
    fn dotted_path_through_array_of_objects() {
        let doc = json!({"sites": [{"el": "Li"}, {"el": "O"}]});
        assert!(matches(json!({"sites.el": "Li"}), doc.clone()));
        assert!(!matches(json!({"sites.el": "Fe"}), doc));
    }

    #[test]
    fn range_operators() {
        let doc = json!({"x": 10});
        assert!(matches(json!({"x": {"$gt": 5}}), doc.clone()));
        assert!(matches(json!({"x": {"$gte": 10}}), doc.clone()));
        assert!(!matches(json!({"x": {"$gt": 10}}), doc.clone()));
        assert!(matches(json!({"x": {"$lt": 11}}), doc.clone()));
        assert!(matches(json!({"x": {"$gt": 5, "$lt": 15}}), doc.clone()));
        assert!(!matches(json!({"x": {"$gt": 5, "$lt": 9}}), doc));
    }

    #[test]
    fn range_ignores_cross_type() {
        // Numbers don't compare with strings.
        assert!(!matches(json!({"x": {"$gt": 5}}), json!({"x": "abc"})));
        assert!(!matches(json!({"x": {"$lt": "zzz"}}), json!({"x": 3})));
    }

    #[test]
    fn in_nin() {
        let doc = json!({"state": "RUNNING"});
        assert!(matches(
            json!({"state": {"$in": ["READY", "RUNNING"]}}),
            doc.clone()
        ));
        assert!(!matches(
            json!({"state": {"$nin": ["READY", "RUNNING"]}}),
            doc.clone()
        ));
        assert!(matches(json!({"state": {"$nin": ["DONE"]}}), doc));
    }

    #[test]
    fn ne_on_arrays_requires_no_element_match() {
        assert!(!matches(
            json!({"tags": {"$ne": "x"}}),
            json!({"tags": ["x", "y"]})
        ));
        assert!(matches(
            json!({"tags": {"$ne": "z"}}),
            json!({"tags": ["x", "y"]})
        ));
    }

    #[test]
    fn ne_missing_field_matches() {
        assert!(matches(json!({"a": {"$ne": 1}}), json!({"b": 2})));
    }

    #[test]
    fn exists() {
        assert!(matches(json!({"a": {"$exists": true}}), json!({"a": null})));
        assert!(matches(json!({"a": {"$exists": false}}), json!({"b": 1})));
        assert!(!matches(json!({"a": {"$exists": true}}), json!({"b": 1})));
    }

    #[test]
    fn size_and_type() {
        assert!(matches(json!({"xs": {"$size": 2}}), json!({"xs": [1, 2]})));
        assert!(!matches(json!({"xs": {"$size": 3}}), json!({"xs": [1, 2]})));
        assert!(matches(
            json!({"a": {"$type": "string"}}),
            json!({"a": "s"})
        ));
        assert!(matches(json!({"a": {"$type": "int"}}), json!({"a": 3})));
        assert!(matches(
            json!({"a": {"$type": "double"}}),
            json!({"a": 3.5})
        ));
    }

    #[test]
    fn regex_subset() {
        assert!(matches(
            json!({"f": {"$regex": "^Li"}}),
            json!({"f": "LiFePO4"})
        ));
        assert!(!matches(
            json!({"f": {"$regex": "^Fe"}}),
            json!({"f": "LiFePO4"})
        ));
        assert!(matches(
            json!({"f": {"$regex": "PO4"}}),
            json!({"f": "LiFePO4"})
        ));
    }

    #[test]
    fn mod_op() {
        assert!(matches(json!({"n": {"$mod": [4, 0]}}), json!({"n": 8})));
        assert!(!matches(json!({"n": {"$mod": [4, 1]}}), json!({"n": 8})));
    }

    #[test]
    fn elem_match() {
        let doc = json!({"runs": [{"code": "vasp", "ok": true}, {"code": "other", "ok": false}]});
        assert!(matches(
            json!({"runs": {"$elemMatch": {"code": "vasp", "ok": true}}}),
            doc.clone()
        ));
        assert!(!matches(
            json!({"runs": {"$elemMatch": {"code": "other", "ok": true}}}),
            doc
        ));
    }

    #[test]
    fn not_negates() {
        assert!(matches(json!({"x": {"$not": {"$gt": 5}}}), json!({"x": 3})));
        assert!(!matches(
            json!({"x": {"$not": {"$gt": 5}}}),
            json!({"x": 7})
        ));
        // $not on a missing field matches (nothing satisfied the inner pred).
        assert!(matches(json!({"x": {"$not": {"$gt": 5}}}), json!({"y": 7})));
    }

    #[test]
    fn logical_and_or_nor() {
        let doc = json!({"a": 1, "b": 2});
        assert!(matches(json!({"$and": [{"a": 1}, {"b": 2}]}), doc.clone()));
        assert!(!matches(json!({"$and": [{"a": 1}, {"b": 3}]}), doc.clone()));
        assert!(matches(json!({"$or": [{"a": 9}, {"b": 2}]}), doc.clone()));
        assert!(!matches(json!({"$or": [{"a": 9}, {"b": 9}]}), doc.clone()));
        assert!(matches(json!({"$nor": [{"a": 9}, {"b": 9}]}), doc.clone()));
        assert!(!matches(json!({"$nor": [{"a": 1}]}), doc));
    }

    #[test]
    fn unknown_operator_rejected() {
        assert!(Filter::parse(&json!({"a": {"$where": "evil()"}})).is_err());
        assert!(Filter::parse(&json!({"$foo": []})).is_err());
    }

    #[test]
    fn mixed_operator_literal_rejected() {
        assert!(Filter::parse(&json!({"a": {"$gt": 1, "b": 2}})).is_err());
    }

    #[test]
    fn equality_and_range_extraction() {
        let f = Filter::parse(&json!({"a": 1, "b": {"$gte": 2, "$lt": 9}})).unwrap();
        assert_eq!(f.equality_on("a"), Some(&json!(1)));
        assert!(f.equality_on("b").is_none());
        let cf = f.compile();
        assert_eq!(cf.equality_on("a"), Some(&json!(1)));
        let (two, nine) = (json!(2), json!(9));
        let bounds = (Bound::Included(&two), Bound::Excluded(&nine));
        assert_eq!(cf.range_on("b"), Some(bounds));
        assert_eq!(cf.range_on("a"), None);
        let cf = Filter::parse(&json!({"b": {"$in": [3, 1, 2]}}))
            .unwrap()
            .compile();
        assert_eq!(cf.in_on("b"), Some(&[json!(1), json!(2), json!(3)][..]));
    }

    #[test]
    fn ranges_open_a_stored_array_one_level() {
        let nested = json!({"x": [[1, 2]]});
        for q in [json!({"x": {"$lte": 2}}), json!({"x": {"$gt": 0}})] {
            assert!(!matches(q.clone(), nested.clone()), "{q}");
            assert!(matches(q.clone(), json!({"x": [[1], 2]})), "{q}");
            assert!(matches(q, json!({"x": [1, 2]})));
        }
        // An array operand compares with the array, whole.
        assert!(matches(json!({"x": {"$gte": [1]}}), json!({"x": [1, 2]})));
    }

    #[test]
    fn empty_logical_clause_lists_rejected() {
        for op in ["$and", "$or", "$nor"] {
            let err = Filter::parse(&json!({ op: [] }));
            assert!(err.is_err(), "{op}: empty clause list must not parse");
            // Non-array operands are rejected too.
            assert!(
                Filter::parse(&json!({ op: {"a": 1} })).is_err(),
                "{op}: non-array"
            );
        }
    }

    #[test]
    fn nested_not_parses_and_double_negates() {
        // $not containing $not: inner pred fails → inner $not matches →
        // outer $not must NOT match.
        let q = json!({"x": {"$not": {"$not": {"$gt": 5}}}});
        assert!(matches(q.clone(), json!({"x": 7})));
        assert!(!matches(q, json!({"x": 3})));
        // $not wrapping several predicates negates their conjunction.
        let q = json!({"x": {"$not": {"$gte": 2, "$lte": 8}}});
        assert!(matches(q.clone(), json!({"x": 9})));
        assert!(!matches(q, json!({"x": 5})));
    }

    #[test]
    fn mixed_type_equality_never_matches() {
        // Equality across type groups is simply false, not an error.
        assert!(!matches(json!({"x": "5"}), json!({"x": 5})));
        assert!(!matches(json!({"x": 5}), json!({"x": "5"})));
        assert!(!matches(json!({"x": true}), json!({"x": 1})));
        assert!(!matches(json!({"x": null}), json!({"x": 0})));
        // But int/double cross-representation equality holds.
        assert!(matches(json!({"x": 5}), json!({"x": 5.0})));
    }

    #[test]
    fn empty_in_parses_but_matches_nothing() {
        // The store accepts `$in: []` (mp-lint flags it as Q002); it must
        // behave as always-false, never panic.
        let q = json!({"x": {"$in": []}});
        assert!(!matches(q.clone(), json!({"x": 1})));
        assert!(!matches(q, json!({"y": 1})));
        // `$nin: []` is vacuously true.
        assert!(matches(json!({"x": {"$nin": []}}), json!({"x": 1})));
    }

    #[test]
    fn empty_filter_matches_all() {
        assert!(matches(json!({}), json!({"anything": 1})));
    }

    #[test]
    fn touched_paths_lists_fields() {
        let f = Filter::parse(&json!({"a": 1, "$or": [{"b": 2}, {"c.d": 3}]})).unwrap();
        assert_eq!(f.touched_paths(), vec!["a", "b", "c.d"]);
    }
}
