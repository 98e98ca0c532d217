//! `Map` against the structure it replaced: a `Vec<(String, Value)>`
//! driven through the same random operations must hold the same
//! entries in the same order and render the same text — whichever way
//! each key happens to be stored. The key alphabets make both ways
//! meet in one map: a small vocabulary that recurs, names longer than
//! the shared store takes, and fresh names in a supply larger than the
//! store (a few thousand), so that late in the run new short names are
//! owned by their entries too. Keys go in and are looked up by text and
//! by `FieldName`, which may hold a name the other way from the entry
//! it meets. Its own test binary, because it fills that process-wide
//! store.

use serde::{FieldName, Map, Value};

/// xorshift64*: the shim has no dependencies to draw a generator from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The reference: insertion-ordered, linear, every key its own `String`.
#[derive(Default)]
struct Model(Vec<(String, Value)>);

impl Model {
    fn position(&self, key: &str) -> Option<usize> {
        self.0.iter().position(|(k, _)| k == key)
    }

    fn insert(&mut self, key: &str, value: Value) -> Option<Value> {
        match self.position(key) {
            Some(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            None => {
                self.0.push((key.to_owned(), value));
                None
            }
        }
    }

    fn remove(&mut self, key: &str) -> Option<Value> {
        self.position(key).map(|i| self.0.remove(i).1)
    }

    fn or_insert(&mut self, key: &str, value: Value) -> &mut Value {
        let i = self.position(key).unwrap_or_else(|| {
            self.0.push((key.to_owned(), value));
            self.0.len() - 1
        });
        &mut self.0[i].1
    }

    /// Compact JSON, written out by hand (the alphabets need no escapes).
    fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }
}

struct Names {
    rng: Rng,
    fresh: u64,
}

impl Names {
    fn pick(&mut self) -> String {
        match self.rng.below(10) {
            // Recurring vocabulary: hits, overwrites, removals.
            0..=4 => format!("field_{}", self.rng.below(12)),
            // Longer than any name the shared store takes.
            5 => format!("{:x>80}", self.rng.below(6)),
            // The 64-byte edge, from both sides.
            6 => "e".repeat(63 + self.rng.below(3) as usize),
            // Never seen before: more of these than the store holds.
            _ => {
                self.fresh += 1;
                format!("fresh_{}", self.fresh)
            }
        }
    }
}

fn assert_same(map: &Map<String, Value>, model: &Model, step: usize) {
    assert_eq!(map.len(), model.0.len(), "step {step}");
    assert!(
        map.iter().eq(model.0.iter().map(|(k, v)| (k, v))),
        "step {step}: {map:?} vs {:?}",
        model.0
    );
    assert!(map.keys().eq(model.0.iter().map(|(k, _)| k)), "step {step}");
    assert_eq!(
        Value::Object(map.clone()).to_string(),
        model.render(),
        "step {step}"
    );
}

#[test]
fn map_agrees_with_a_vector_of_owned_keys() {
    // Miri runs this for its aliasing and leak checks, not for
    // coverage of the full store.
    let steps = if cfg!(miri) { 600 } else { 24_000 };
    let mut names = Names {
        rng: Rng(0x9e37_79b9_7f4a_7c15),
        fresh: 0,
    };
    let mut map = Map::new();
    let mut model = Model::default();
    for step in 0..steps {
        let key = names.pick();
        let value = Value::from(step as u64);
        match names.rng.below(14) {
            0 | 1 => assert_eq!(
                map.insert(key.clone(), value.clone()),
                model.insert(&key, value)
            ),
            2 | 3 => assert_eq!(
                map.insert_str(&key, value.clone()),
                model.insert(&key, value)
            ),
            4 | 5 => assert_eq!(map.remove(&key), model.remove(&key)),
            6 => assert_eq!(
                map.entry(key.as_str()).or_insert(value.clone()),
                model.or_insert(&key, value)
            ),
            7 => {
                let bump = |v: &mut Value| *v = Value::from(v.as_u64().unwrap_or(0) + 1);
                map.entry(key.clone())
                    .and_modify(bump)
                    .or_insert_with(|| value.clone());
                match model.position(&key) {
                    Some(i) => bump(&mut model.0[i].1),
                    None => model.0.push((key, value)),
                }
            }
            8 => {
                // Thin the map out, by key and by value — a different
                // half each time, so it stays a document's size.
                let keep = |k: &String, v: &mut Value| {
                    (k.len() as u64 + v.as_u64().unwrap_or(0) + step as u64).is_multiple_of(2)
                };
                map.retain(keep);
                model.0.retain_mut(|(k, v)| keep(k, v));
            }
            9 => {
                let more: Vec<(String, Value)> = (0..names.rng.below(4))
                    .map(|i| (names.pick(), Value::from(i)))
                    .collect();
                map.extend(more.clone());
                for (k, v) in more {
                    model.insert(&k, v);
                }
            }
            10 => {
                // Out through `into_iter` as owned strings, and back.
                let owned: Vec<(String, Value)> = std::mem::take(&mut map).into_iter().collect();
                assert_eq!(owned, model.0, "step {step}");
                map = owned.into_iter().collect();
            }
            // By a name resolved once, before or after a map entered it.
            11 => assert_eq!(
                map.insert_field(&FieldName::new(&key), value.clone()),
                model.insert(&key, value)
            ),
            12 => {
                let name = FieldName::new(&key);
                assert_eq!(name.as_str(), key);
                assert_eq!(map.get_field(&name), map.get(&key));
                assert_eq!(
                    map.get_field(&name),
                    model.position(&key).map(|i| &model.0[i].1)
                );
            }
            _ => {
                assert_eq!(map.get(&key), model.position(&key).map(|i| &model.0[i].1));
                assert_eq!(map.contains_key(&key), model.position(&key).is_some());
                let copy = map.clone();
                assert_eq!(copy, map);
                map = copy;
            }
        }
        assert_same(&map, &model, step);
    }
    assert!(
        cfg!(miri) || names.fresh > 5_000,
        "{} fresh names: not more than the store holds",
        names.fresh
    );
}
