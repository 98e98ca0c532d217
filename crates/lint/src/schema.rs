//! Per-collection schema inference: field → type lattice, plus index
//! metadata. This is what makes the query analyzer "schema-aware".

use std::collections::BTreeMap;
use std::fmt;

use mp_docstore::Collection;
use serde_json::Value;

/// A set of JSON types a field has been observed to hold (a small lattice:
/// ⊥ = empty, ⊤ = everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TypeSet(u8);

impl TypeSet {
    /// No observed types.
    pub const EMPTY: TypeSet = TypeSet(0);
    /// JSON null.
    pub const NULL: TypeSet = TypeSet(1);
    /// Booleans.
    pub const BOOL: TypeSet = TypeSet(2);
    /// Integer numbers.
    pub const INT: TypeSet = TypeSet(4);
    /// Double numbers.
    pub const DOUBLE: TypeSet = TypeSet(8);
    /// Strings.
    pub const STRING: TypeSet = TypeSet(16);
    /// Arrays.
    pub const ARRAY: TypeSet = TypeSet(32);
    /// Objects.
    pub const OBJECT: TypeSet = TypeSet(64);
    /// Either numeric type.
    pub const NUMBER: TypeSet = TypeSet(4 | 8);

    /// The type of one concrete value.
    pub fn of(v: &Value) -> TypeSet {
        match v {
            Value::Null => TypeSet::NULL,
            Value::Bool(_) => TypeSet::BOOL,
            Value::Number(n) if n.is_f64() => TypeSet::DOUBLE,
            Value::Number(_) => TypeSet::INT,
            Value::String(_) => TypeSet::STRING,
            Value::Array(_) => TypeSet::ARRAY,
            Value::Object(_) => TypeSet::OBJECT,
        }
    }

    /// Union of two sets.
    pub fn union(self, other: TypeSet) -> TypeSet {
        TypeSet(self.0 | other.0)
    }

    /// True when the sets share at least one type.
    pub fn intersects(self, other: TypeSet) -> bool {
        self.0 & other.0 != 0
    }

    /// True when no type was observed.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when `other`'s types are all contained in `self`.
    pub fn contains(self, other: TypeSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Human-readable type names in the set.
    pub fn names(self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (bit, name) in [
            (TypeSet::NULL, "null"),
            (TypeSet::BOOL, "bool"),
            (TypeSet::INT, "int"),
            (TypeSet::DOUBLE, "double"),
            (TypeSet::STRING, "string"),
            (TypeSet::ARRAY, "array"),
            (TypeSet::OBJECT, "object"),
        ] {
            if self.intersects(bit) {
                out.push(name);
            }
        }
        out
    }
}

impl fmt::Display for TypeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            f.write_str("unknown")
        } else {
            f.write_str(&self.names().join("|"))
        }
    }
}

/// Inferred shape of one collection: dotted field paths → observed types,
/// plus declared index paths.
#[derive(Debug, Clone, Default)]
pub struct CollectionSchema {
    /// Collection name (for diagnostics).
    pub collection: String,
    /// Dotted path → types observed at that path. Array fields contribute
    /// both `array` and their element types at the same path, mirroring the
    /// store's multikey index / implicit-traversal semantics.
    pub fields: BTreeMap<String, TypeSet>,
    /// Paths with a declared index (`_id` is always implicitly indexed).
    pub indexed: Vec<String>,
    /// How many documents were sampled.
    pub sampled: usize,
    /// Total documents in the collection at inference time.
    pub total_docs: usize,
}

impl CollectionSchema {
    /// Infer a schema by sampling up to `sample` documents plus the
    /// collection's index metadata.
    pub fn infer(coll: &Collection, sample: usize) -> CollectionSchema {
        let (docs, total_docs) = coll.sample(sample);
        let mut fields = BTreeMap::new();
        let mut path = String::new();
        for doc in &docs {
            walk(doc, &mut path, &mut fields);
        }
        CollectionSchema {
            collection: coll.name().to_string(),
            fields,
            indexed: coll.index_paths(),
            sampled: docs.len(),
            total_docs,
        }
    }

    /// Build a schema by hand (tests, declarative contracts).
    pub fn with_fields(
        collection: impl Into<String>,
        fields: impl IntoIterator<Item = (&'static str, TypeSet)>,
        indexed: impl IntoIterator<Item = &'static str>,
    ) -> CollectionSchema {
        CollectionSchema {
            collection: collection.into(),
            fields: fields
                .into_iter()
                .map(|(k, t)| (k.to_string(), t))
                .collect(),
            indexed: indexed.into_iter().map(str::to_string).collect(),
            sampled: 0,
            total_docs: 0,
        }
    }

    /// Observed types at `path` (empty set when never observed).
    pub fn types_at(&self, path: &str) -> TypeSet {
        self.fields.get(path).copied().unwrap_or(TypeSet::EMPTY)
    }

    /// True when `path` is a known field, an interior object node on the way
    /// to one (`output` when `output.energy` exists), or `_id`.
    pub fn has_field(&self, path: &str) -> bool {
        if path == "_id" || self.fields.contains_key(path) {
            return true;
        }
        let prefix = format!("{path}.");
        self.fields.keys().any(|k| k.starts_with(&prefix))
    }

    /// True when a declared index (or the implicit `_id` index) covers `path`.
    pub fn is_indexed(&self, path: &str) -> bool {
        path == "_id" || self.indexed.iter().any(|p| p == path)
    }
}

/// Record `v`'s type at `path` and recurse into containers. `path` is
/// one buffer grown and truncated in place, and a path already seen
/// costs a lookup, not a fresh key: this runs over every sampled
/// document on every structured query.
fn walk(v: &Value, path: &mut String, fields: &mut BTreeMap<String, TypeSet>) {
    if !path.is_empty() {
        let seen = TypeSet::of(v);
        match fields.get_mut(path.as_str()) {
            Some(entry) => *entry = entry.union(seen),
            None => {
                fields.insert(path.clone(), seen);
            }
        }
    }
    match v {
        Value::Object(m) => {
            for (k, child) in m.iter() {
                let parent_len = path.len();
                if parent_len > 0 {
                    path.push('.');
                }
                path.push_str(k);
                walk(child, path, fields);
                path.truncate(parent_len);
            }
        }
        Value::Array(items) if !path.is_empty() => {
            // Multikey semantics: elements are observable at the array's own
            // path, and object elements expose their fields via implicit
            // dotted traversal.
            for item in items {
                walk(item, path, fields);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_docstore::Database;
    use serde_json::json;

    #[test]
    fn infers_field_types_and_indexes() {
        let db = Database::new();
        let coll = db.collection("tasks");
        coll.create_index("chemsys", false).unwrap();
        coll.insert_many(vec![
            json!({"chemsys": "Li-O", "nsites": 2, "output": {"energy": -1.5}}),
            json!({"chemsys": "Na-Cl", "nsites": 4, "output": {"energy": -3.0}, "tags": ["a", "b"]}),
        ])
        .unwrap();

        let schema = CollectionSchema::infer(&coll, 100);
        assert!(schema.types_at("chemsys").contains(TypeSet::STRING));
        assert!(schema.types_at("nsites").contains(TypeSet::INT));
        assert!(schema.types_at("output.energy").contains(TypeSet::DOUBLE));
        // Arrays record both the container and the element types.
        assert!(schema.types_at("tags").contains(TypeSet::ARRAY));
        assert!(schema.types_at("tags").contains(TypeSet::STRING));
        assert!(
            schema.has_field("output"),
            "interior object nodes are known fields"
        );
        assert!(schema.is_indexed("chemsys"));
        assert!(schema.is_indexed("_id"));
        assert!(!schema.is_indexed("nsites"));
        assert_eq!(schema.sampled, 2);
    }

    #[test]
    fn int_and_double_stay_distinct() {
        let db = Database::new();
        let coll = db.collection("c");
        coll.insert_one(json!({"n": 1, "x": 1.0})).unwrap();
        let schema = CollectionSchema::infer(&coll, 10);
        assert_eq!(schema.types_at("n"), TypeSet::INT);
        assert_eq!(schema.types_at("x"), TypeSet::DOUBLE);
    }
}
