//! Pass 3: data validation & verification (V&V) for staged documents.
//!
//! Declarative per-collection rules run before documents are committed:
//!
//! - `D001` (error): required field missing.
//! - `D002` (error): field present with the wrong type.
//! - `D003` (error): numeric field out of its allowed range.
//! - `D004` (error): cross-field invariant violated (e.g.
//!   `output.energy_per_atom * nsites ≈ output.energy`).
//!
//! Builders add rules with the fluent [`RuleSet`] API; [`RuleSet::task_defaults`]
//! encodes the contract of the DFT task documents this pipeline stages.

use mp_docstore::value::{type_name, Path};
use serde_json::Value;

use crate::diagnostics::Diagnostic;
use crate::schema::TypeSet;

/// One check applied to a dotted field path.
#[derive(Debug, Clone)]
pub enum FieldCheck {
    /// The field must exist (and not be `null`).
    Required,
    /// When present, the field's type must be in the set.
    TypeIs(TypeSet),
    /// When present and numeric, the value must lie in `[min, max]`
    /// (either bound optional).
    Range {
        /// Inclusive lower bound.
        min: Option<f64>,
        /// Inclusive upper bound.
        max: Option<f64>,
    },
}

/// All checks for one field path.
#[derive(Debug, Clone)]
pub struct FieldRule {
    /// Dotted path into the document.
    pub path: Path,
    /// Checks applied in order.
    pub checks: Vec<FieldCheck>,
}

/// A relation between fields that must hold for the document to be sane.
#[derive(Debug, Clone)]
pub enum Invariant {
    /// `a * b ≈ out` within a relative tolerance.
    ProductEquals {
        /// First factor path.
        a: Path,
        /// Second factor path.
        b: Path,
        /// Product path.
        out: Path,
        /// Allowed relative error.
        rel_tol: f64,
    },
}

/// Declarative V&V contract for one collection.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    /// Collection the contract applies to (diagnostics only).
    pub collection: String,
    /// Per-field rules.
    pub rules: Vec<FieldRule>,
    /// Cross-field invariants.
    pub invariants: Vec<Invariant>,
}

impl RuleSet {
    /// Empty contract for `collection`.
    pub fn new(collection: impl Into<String>) -> Self {
        RuleSet {
            collection: collection.into(),
            ..RuleSet::default()
        }
    }

    fn rule_mut(&mut self, path: &str) -> &mut FieldRule {
        if let Some(i) = self.rules.iter().position(|r| r.path.as_str() == path) {
            &mut self.rules[i]
        } else {
            self.rules.push(FieldRule {
                path: Path::new(path),
                checks: Vec::new(),
            });
            self.rules.last_mut().expect("just pushed")
        }
    }

    /// The field must exist and be non-null.
    pub fn require(mut self, path: &str) -> Self {
        self.rule_mut(path).checks.push(FieldCheck::Required);
        self
    }

    /// When present, the field must hold one of `types`.
    pub fn typed(mut self, path: &str, types: TypeSet) -> Self {
        self.rule_mut(path).checks.push(FieldCheck::TypeIs(types));
        self
    }

    /// When present, the numeric field must lie in the inclusive range.
    pub fn range(mut self, path: &str, min: Option<f64>, max: Option<f64>) -> Self {
        self.rule_mut(path)
            .checks
            .push(FieldCheck::Range { min, max });
        self
    }

    /// Require `a * b ≈ out` within `rel_tol` relative error.
    pub fn product_equals(mut self, a: &str, b: &str, out: &str, rel_tol: f64) -> Self {
        self.invariants.push(Invariant::ProductEquals {
            a: Path::new(a),
            b: Path::new(b),
            out: Path::new(out),
            rel_tol,
        });
        self
    }

    /// The contract for DFT task documents staged into `tasks`: identity
    /// fields present and typed, physically sensible ranges, and the
    /// energy-extensivity invariant.
    pub fn task_defaults() -> Self {
        RuleSet::new("tasks")
            .require("status")
            .typed("status", TypeSet::STRING)
            .require("formula")
            .typed("formula", TypeSet::STRING)
            .require("chemsys")
            .typed("chemsys", TypeSet::STRING)
            .require("nsites")
            .typed("nsites", TypeSet::INT)
            .range("nsites", Some(1.0), None)
            .typed("elements", TypeSet::ARRAY)
            .require("output.energy_per_atom")
            .typed("output.energy_per_atom", TypeSet::NUMBER)
            .require("output.energy")
            .typed("output.energy", TypeSet::NUMBER)
            .typed("output.band_gap", TypeSet::NUMBER)
            .range("output.band_gap", Some(0.0), None)
            .product_equals("output.energy_per_atom", "nsites", "output.energy", 1e-6)
    }

    /// Validate one document against the contract.
    pub fn validate(&self, doc: &Value) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for rule in &self.rules {
            let value = rule.path.get(doc);
            for check in &rule.checks {
                match check {
                    FieldCheck::Required => {
                        if value.map(Value::is_null).unwrap_or(true) {
                            out.push(
                                Diagnostic::error(
                                    "D001",
                                    rule.path.as_str(),
                                    format!(
                                        "required field `{}` is missing from the staged `{}` document",
                                        rule.path, self.collection
                                    ),
                                )
                                .with_suggestion("fix the builder that assembles this document"),
                            );
                        }
                    }
                    FieldCheck::TypeIs(types) => {
                        if let Some(v) = value.filter(|v| !v.is_null()) {
                            if !types.intersects(TypeSet::of(v)) {
                                out.push(Diagnostic::error(
                                    "D002",
                                    rule.path.as_str(),
                                    format!(
                                        "`{}` is {} but the contract requires {types}",
                                        rule.path,
                                        type_name(v)
                                    ),
                                ));
                            }
                        }
                    }
                    FieldCheck::Range { min, max } => {
                        if let Some(x) = value.and_then(Value::as_f64) {
                            let low = min.map(|m| x < m).unwrap_or(false);
                            let high = max.map(|m| x > m).unwrap_or(false);
                            if low || high {
                                out.push(Diagnostic::error(
                                    "D003",
                                    rule.path.as_str(),
                                    format!(
                                        "`{}` = {x} is outside the allowed range [{}, {}]",
                                        rule.path,
                                        min.map(|m| m.to_string()).unwrap_or_else(|| "-inf".into()),
                                        max.map(|m| m.to_string()).unwrap_or_else(|| "+inf".into()),
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
        for inv in &self.invariants {
            match inv {
                Invariant::ProductEquals {
                    a,
                    b,
                    out: prod,
                    rel_tol,
                } => {
                    let (Some(va), Some(vb), Some(vp)) = (
                        a.get(doc).and_then(Value::as_f64),
                        b.get(doc).and_then(Value::as_f64),
                        prod.get(doc).and_then(Value::as_f64),
                    ) else {
                        continue; // missing operands are D001/D002's job
                    };
                    let expect = va * vb;
                    let scale = expect.abs().max(vp.abs()).max(1e-12);
                    if (expect - vp).abs() / scale > *rel_tol {
                        out.push(
                            Diagnostic::error(
                                "D004",
                                prod.as_str(),
                                format!(
                                    "invariant violated: `{a}` * `{b}` = {expect} but `{prod}` = {vp}"
                                ),
                            )
                            .with_suggestion("these fields disagree; the document is inconsistent"),
                        );
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::has_errors;
    use serde_json::json;

    fn good_task() -> Value {
        json!({
            "status": "converged",
            "formula": "Li2O",
            "chemsys": "Li-O",
            "nsites": 3,
            "elements": ["Li", "O"],
            "output": {"energy_per_atom": -2.5, "energy": -7.5, "band_gap": 1.2}
        })
    }

    #[test]
    fn clean_document_passes() {
        let diags = RuleSet::task_defaults().validate(&good_task());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn d001_missing_required_field() {
        let mut doc = good_task();
        doc.as_object_mut().unwrap().remove("chemsys");
        let diags = RuleSet::task_defaults().validate(&doc);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "D001" && d.path == "chemsys"),
            "{diags:?}"
        );
        assert!(has_errors(&diags));
    }

    #[test]
    fn d002_wrong_type() {
        let mut doc = good_task();
        doc["nsites"] = json!("three");
        let diags = RuleSet::task_defaults().validate(&doc);
        assert!(
            diags.iter().any(|d| d.code == "D002" && d.path == "nsites"),
            "{diags:?}"
        );
    }

    #[test]
    fn d003_out_of_range() {
        let mut doc = good_task();
        doc["output"]["band_gap"] = json!(-0.4);
        let diags = RuleSet::task_defaults().validate(&doc);
        assert!(diags.iter().any(|d| d.code == "D003"), "{diags:?}");
    }

    #[test]
    fn d004_energy_extensivity() {
        let mut doc = good_task();
        doc["output"]["energy"] = json!(-99.0);
        let diags = RuleSet::task_defaults().validate(&doc);
        assert!(diags.iter().any(|d| d.code == "D004"), "{diags:?}");
    }

    #[test]
    fn custom_rules_compose() {
        let rules = RuleSet::new("materials").require("mps_id").range(
            "stability.e_above_hull",
            Some(0.0),
            Some(10.0),
        );
        let diags = rules.validate(&json!({"stability": {"e_above_hull": 42.0}}));
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(
            codes.contains(&"D001") && codes.contains(&"D003"),
            "{diags:?}"
        );
    }
}
